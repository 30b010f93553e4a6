// Command auditview inspects lciot audit trails — either the JSON
// produced by audit.ExportJSON / lciotd's shutdown export, or a durable
// store directory written by lciotd -data-dir (the directory itself or
// its audit/ subdirectory): verification of the tamper-evident chain,
// compliance reporting, provenance graph export, and the forensic queries
// of the paper's Section 8.3. Provenance queries over a store directory
// span every persisted record, including segments retired from process
// memory by pruning.
//
// Usage:
//
//	auditview verify <log.json|dir>              check the hash chain
//	auditview report <log.json|dir>              print a compliance summary
//	auditview dot <log.json|dir>                 emit the provenance graph (DOT)
//	auditview ancestry <log.json|dir> <node>     how was this produced?
//	auditview descendants <log.json|dir> <node>  where did this end up?
//	auditview agents <log.json|dir> <node>       who is responsible for it?
//	auditview retention <log.json|dir> <tag> <age>
//	                                             prove "all data under <tag>
//	                                             older than <age> is gone or
//	                                             tombstoned"
//
// Chains containing tombstones (records redacted in place by erasure
// obligations) verify by linkage: the payload is gone — that is the point
// — while the sequence of hashes still proves nothing else was touched.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// loadRecords reads records from an exported JSON file or a durable store
// directory. For directories the store's recovery already verifies the
// whole persisted chain — a failure there is reported as a broken chain.
func loadRecords(path string) (recs []audit.Record, fromStore bool, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, false, err
	}
	if fi.IsDir() {
		dir := path
		if sub := filepath.Join(path, "audit"); store.IsWALDir(sub) {
			dir = sub
		}
		s, err := store.OpenAudit(dir, store.Options{})
		if err != nil {
			return nil, true, err
		}
		defer s.Close()
		recs, err := s.Records(0, 0)
		return recs, true, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	recs, err = audit.ImportRecords(data)
	return recs, false, err
}

func run(args []string) int {
	if len(args) < 2 {
		usage()
		return 2
	}
	cmd, path := args[0], args[1]
	// verify over a store directory streams: recovery chain-verifies the
	// whole store in bounded memory, so nothing needs materialising.
	if cmd == "verify" {
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			return verifyStoreDir(path)
		}
	}
	recs, fromStore, err := loadRecords(path)
	if err != nil {
		if fromStore {
			fmt.Println("chain BROKEN:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "auditview:", err)
		return 1
	}

	switch cmd {
	case "verify":
		if err := audit.VerifySegment(recs, nil); err != nil {
			fmt.Println("chain BROKEN:", err)
			return 1
		}
		fmt.Printf("chain intact: %d records\n", len(recs))
		return 0
	case "report":
		return report(recs)
	case "dot":
		printChainStatus(os.Stderr, recs, fromStore)
		fmt.Print(audit.BuildGraph(recs).DOT())
		return 0
	case "ancestry", "descendants", "agents":
		if len(args) != 3 {
			usage()
			return 2
		}
		printChainStatus(os.Stderr, recs, fromStore)
		return query(recs, cmd, args[2])
	case "retention":
		if len(args) != 4 {
			usage()
			return 2
		}
		age, err := time.ParseDuration(args[3])
		if err != nil {
			fmt.Fprintln(os.Stderr, "auditview: bad age:", err)
			return 2
		}
		return retention(recs, ifc.Tag(args[2]), age)
	default:
		usage()
		return 2
	}
}

// retention prints the regulator-facing retention proof for one tag.
func retention(recs []audit.Record, tag ifc.Tag, age time.Duration) int {
	rep := audit.RetentionReport(recs, tag, time.Now().Add(-age))
	fmt.Printf("retention report: tag %s, cutoff %s\n", rep.Tag, rep.Cutoff.UTC().Format(time.RFC3339))
	fmt.Printf("  checked: %d records older than cutoff (tombstoned: %d)\n", rep.Checked, rep.Tombstoned)
	if rep.Compliant {
		fmt.Println("retention compliant: all data under the tag is gone or tombstoned")
		return 0
	}
	fmt.Printf("retention VIOLATIONS: %d live records under %s older than the cutoff\n",
		len(rep.Violations), rep.Tag)
	for _, r := range rep.Violations {
		fmt.Printf("  seq=%d time=%s data=%s %s -> %s\n",
			r.Seq, r.Time.UTC().Format(time.RFC3339), r.DataID, r.Src, r.Dst)
	}
	return 1
}

// verifyStoreDir opens (and thereby chain-verifies) a store directory
// without materialising its records.
func verifyStoreDir(path string) int {
	dir := path
	if sub := filepath.Join(path, "audit"); store.IsWALDir(sub) {
		dir = sub
	}
	s, err := store.OpenAudit(dir, store.Options{})
	if err != nil {
		fmt.Println("chain BROKEN:", err)
		return 1
	}
	n := s.Len()
	s.Close()
	fmt.Printf("chain intact: %d records (store verified on recovery)\n", n)
	return 0
}

// printChainStatus reports the chain-verification outcome alongside graph
// output (on stderr, so stdout stays machine-consumable).
func printChainStatus(w *os.File, recs []audit.Record, fromStore bool) {
	source := "export"
	if fromStore {
		source = "store"
	}
	if err := audit.VerifySegment(recs, nil); err != nil {
		fmt.Fprintf(w, "chain BROKEN (%s): %v\n", source, err)
		return
	}
	fmt.Fprintf(w, "chain intact (%s): %d records\n", source, len(recs))
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: auditview verify|report|dot <log.json|store-dir> | auditview ancestry|descendants|agents <log.json|store-dir> <node> | auditview retention <log.json|store-dir> <tag> <age>")
}

func report(recs []audit.Record) int {
	byKind := map[string]int{}
	byLayer := map[string]int{}
	redacted := 0
	for _, r := range recs {
		byKind[r.Kind.String()]++
		byLayer[r.Layer.String()]++
		if r.Redacted {
			redacted++
		}
	}
	fmt.Printf("records: %d (tombstoned: %d)\n", len(recs), redacted)
	printCounts("by kind", byKind)
	printCounts("by layer", byLayer)
	if err := audit.VerifySegment(recs, nil); err != nil {
		fmt.Println("chain: BROKEN —", err)
		return 1
	}
	fmt.Println("chain: intact")
	for _, r := range recs {
		switch {
		case r.Redacted:
			// Tombstones are listed nowhere else: their remaining metadata
			// (seq, time, why) is exactly the erasure evidence.
			fmt.Printf("tombstone seq=%d: %s\n", r.Seq, r.Note)
		case r.Kind == audit.FlowDenied:
			fmt.Printf("denial seq=%d %s -> %s: %s\n", r.Seq, r.Src, r.Dst, r.Note)
		case r.Kind == audit.BreakGlass:
			fmt.Printf("break-glass seq=%d: %s\n", r.Seq, r.Note)
		case r.Kind == audit.ObligationExecuted || r.Kind == audit.ObligationRefused:
			fmt.Printf("obligation seq=%d: %s\n", r.Seq, r.Note)
		}
	}
	return 0
}

func printCounts(title string, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(title + ":")
	for _, k := range keys {
		fmt.Printf("  %-16s %d\n", k, counts[k])
	}
}

func query(recs []audit.Record, kind, node string) int {
	g := audit.BuildGraph(recs)
	var (
		out []string
		err error
	)
	switch kind {
	case "ancestry":
		out, err = g.Ancestry(node)
	case "descendants":
		out, err = g.Descendants(node)
	case "agents":
		out, err = g.Agents(node)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditview:", err)
		return 1
	}
	for _, n := range out {
		fmt.Println(n)
	}
	return 0
}
