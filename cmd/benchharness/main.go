// Command benchharness regenerates the paper's figure reproductions E1-E11
// (see DESIGN.md, "Experiments"): one scenario per figure, each checked
// against an observable outcome and reported PASS or FAIL. Performance is
// measured by the repository benchmark, bench/ (see BENCHMARK.json).
//
// Usage:
//
//	benchharness
package main

import (
	"fmt"
	"os"
)

func main() {
	failed := 0
	fmt.Println("=== E-series: figure reproductions ===")
	for _, exp := range experiments {
		obs, err := exp.run()
		status := "PASS"
		if err != nil {
			status = "FAIL: " + err.Error()
			failed++
		}
		fmt.Printf("%-4s %-34s %s\n", exp.id, exp.title, status)
		if obs != "" {
			fmt.Printf("     %s\n", obs)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchharness: %d experiments failed\n", failed)
		os.Exit(1)
	}
}
