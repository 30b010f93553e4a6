package store

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/fault"
)

// TestCrashRecoverySIGKILL is the crash-recovery property test: a child
// process ingests audit records through the full Log → sink → WAL
// pipeline and reports its durable watermark after every Sync; the parent
// SIGKILLs it at an arbitrary point, reopens the store, and asserts the
// recovery contract — at most the uncommitted tail is lost, never a
// record that Sync acknowledged, and the recovered chain verifies end to
// end and continues into a fresh in-memory log.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if os.Getenv("STORE_CRASH_CHILD") == "1" {
		crashChildMain()
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for iter := 0; iter < 3; iter++ {
		dir := t.TempDir()
		killAfter := time.Duration(50+rng.Intn(400)) * time.Millisecond
		acked := runCrashChild(t, dir, killAfter)

		s, err := OpenAudit(dir, Options{})
		if err != nil {
			t.Fatalf("iter %d: recovery failed: %v", iter, err)
		}
		recovered := s.NextSeq()
		if recovered < acked {
			t.Fatalf("iter %d: lost committed records: acked durable boundary %d, recovered only %d",
				iter, acked, recovered)
		}
		if bad, err := s.Verify(); err != nil || bad != -1 {
			t.Fatalf("iter %d: recovered chain broken at %d: %v", iter, bad, err)
		}
		// The chain must continue seamlessly across the crash boundary.
		l := audit.NewLog(nil)
		if err := s.AttachLog(l); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		l.AppendAsync(flowRec("post-crash", "sink"))
		if err := s.VerifyAgainst(l); err != nil {
			t.Fatalf("iter %d: boundary verify after restart: %v", iter, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		t.Logf("iter %d: killed after %v, acked %d, recovered %d", iter, killAfter, acked, recovered)
	}
}

// TestDiskFullRecovery is the disk-full analogue of the SIGKILL test,
// driven by the store.wal.write failpoint instead of a signal: ENOSPC
// strikes mid-batch after a partial write, leaving a torn frame on disk.
// The contract: Sync waiters see the sticky degraded error wrapping
// ENOSPC, nothing past the durable boundary is claimed, and a restart
// truncates the torn tail and verifies clean, with the chain continuing
// across the boundary.
func TestDiskFullRecovery(t *testing.T) {
	defer fault.DisarmAll()
	dir := t.TempDir()

	s, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(nil)
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	// A durable prefix the failure must not touch.
	for i := 0; i < 20; i++ {
		l.AppendAsync(flowRec("ingest", "store"))
	}
	l.Flush()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := s.WAL().DurableSeq()

	// The disk "fills" mid-batch: the next commit lands a 20-byte prefix
	// of the batch — a torn frame — then fails with ENOSPC.
	fault.Arm("store.wal.write",
		fault.Always(fault.Action{Bytes: 20, Err: fault.Wrap(syscall.ENOSPC)}))
	for i := 0; i < 20; i++ {
		l.AppendAsync(flowRec("ingest", "store"))
	}
	l.Flush()
	err = s.Sync()
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Sync = %v, want ErrDegraded wrapping ENOSPC", err)
	}
	if got := s.WAL().DurableSeq(); got != durable {
		t.Fatalf("durable boundary moved across the failure: %d -> %d", durable, got)
	}
	// Ingest continues on the degraded store: records buffer in memory
	// instead of vanishing or wedging the appender.
	for i := 0; i < 5; i++ {
		l.AppendAsync(flowRec("ingest", "store"))
	}
	l.Flush()
	if h := s.Health(); !h.Degraded || h.Buffered == 0 {
		t.Fatalf("health = %+v, want degraded with buffered records", h)
	}
	_ = s.Close()
	fault.DisarmAll()

	// Restart: recovery must truncate the torn tail back to the durable
	// boundary and the chain must verify and continue.
	s2, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after disk-full: %v", err)
	}
	if got := s2.NextSeq(); got != durable {
		t.Fatalf("recovered to seq %d, want durable boundary %d", got, durable)
	}
	if bad, err := s2.Verify(); err != nil || bad != -1 {
		t.Fatalf("recovered chain broken at %d: %v", bad, err)
	}
	l2 := audit.NewLog(nil)
	if err := s2.AttachLog(l2); err != nil {
		t.Fatal(err)
	}
	l2.AppendAsync(flowRec("post-enospc", "sink"))
	if err := s2.VerifyAgainst(l2); err != nil {
		t.Fatalf("boundary verify after restart: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// runCrashChild re-execs the test binary as an ingesting child, kills it
// with SIGKILL after the given delay, and returns the highest durable
// watermark the child acknowledged before dying.
func runCrashChild(t *testing.T, dir string, killAfter time.Duration) uint64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoverySIGKILL$")
	cmd.Env = append(os.Environ(), "STORE_CRASH_CHILD=1", "STORE_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var acked atomic.Uint64
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if n, ok := strings.CutPrefix(line, "acked "); ok {
				if v, err := strconv.ParseUint(n, 10, 64); err == nil {
					acked.Store(v)
				}
			}
		}
	}()

	time.Sleep(killAfter)
	_ = cmd.Process.Kill() // SIGKILL: no deferred cleanup, no final flush
	_ = cmd.Wait()
	<-scanDone
	return acked.Load()
}

// crashChildMain is the child side: open the store, attach a log, ingest
// as fast as possible on the async path, and report the durable boundary
// after every Sync. It never exits on its own (the parent kills it); the
// deadline is a backstop against an orphaned child.
func crashChildMain() {
	dir := os.Getenv("STORE_CRASH_DIR")
	s, err := OpenAudit(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	l := audit.NewLog(nil)
	if err := s.AttachLog(l); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		l.AppendAsync(flowRec("ingest", "store"))
		if i%97 == 0 {
			l.Flush()
			if err := s.Sync(); err != nil {
				fmt.Fprintln(os.Stderr, "crash child:", err)
				os.Exit(1)
			}
			fmt.Printf("acked %d\n", s.WAL().DurableSeq())
		}
	}
	os.Exit(0)
}
