package main

import "testing"

// TestExperiments runs every figure reproduction, so a change that breaks
// one of the paper's scenarios fails tier-1 rather than only the command.
func TestExperiments(t *testing.T) {
	for _, exp := range experiments {
		t.Run(exp.id, func(t *testing.T) {
			if _, err := exp.run(); err != nil {
				t.Fatalf("%s (%s): %v", exp.id, exp.title, err)
			}
		})
	}
}
