package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func appendN(t *testing.T, w *WAL, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if _, err := w.Append(time.Unix(int64(1000+i), 0), []byte(fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func collect(t *testing.T, w *WAL, from, to uint64) []Entry {
	t.Helper()
	var out []Entry
	if err := w.ReadSeq(from, to, func(e Entry) error {
		out = append(out, Entry{Seq: e.Seq, Time: e.Time, Payload: append([]byte(nil), e.Payload...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWALAppendReadRoundTrip(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 100)

	got := collect(t, w, 0, 0)
	if len(got) != 100 {
		t.Fatalf("read %d entries, want 100", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if want := fmt.Sprintf("payload-%04d", i); string(e.Payload) != want {
			t.Fatalf("entry %d payload %q, want %q", i, e.Payload, want)
		}
		if e.Time.Unix() != int64(1000+i) {
			t.Fatalf("entry %d time %v", i, e.Time)
		}
	}

	// Range reads.
	mid := collect(t, w, 10, 20)
	if len(mid) != 10 || mid[0].Seq != 10 || mid[9].Seq != 19 {
		t.Fatalf("range read = %d entries [%d..%d]", len(mid), mid[0].Seq, mid[len(mid)-1].Seq)
	}
}

func TestWALReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NextSeq() != 40 {
		t.Fatalf("reopened NextSeq = %d, want 40", w2.NextSeq())
	}
	appendN(t, w2, 40, 10)
	got := collect(t, w2, 0, 0)
	if len(got) != 50 || got[49].Seq != 49 {
		t.Fatalf("after reopen+append: %d entries", len(got))
	}
}

func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 100)
	if w.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segments", w.Segments())
	}

	removed, err := w.Prune(50)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("prune removed nothing")
	}
	first := w.FirstSeq()
	if first == 0 || first > 50 {
		t.Fatalf("FirstSeq after prune = %d", first)
	}
	// Retained records still read back; pruned ones are gone.
	got := collect(t, w, 0, 0)
	if got[0].Seq != first || got[len(got)-1].Seq != 99 {
		t.Fatalf("after prune entries span [%d..%d], want [%d..99]", got[0].Seq, got[len(got)-1].Seq, first)
	}

	// Prune everything: rotates the active segment away and leaves an
	// empty log that still resumes at 100.
	if _, err := w.Prune(w.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w, 0, 0); len(got) != 0 {
		t.Fatalf("fully pruned log still returns %d entries", len(got))
	}
	appendN(t, w, 100, 1)
	if got := collect(t, w, 0, 0); len(got) != 1 || got[0].Seq != 100 {
		t.Fatalf("append after full prune = %+v", got)
	}
}

func TestWALRetentionMaxSegments(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 200)
	if got := w.Segments(); got > 3 {
		t.Fatalf("retention kept %d segments, want <= 3", got)
	}
	if w.FirstSeq() == 0 {
		t.Fatal("retention deleted nothing")
	}
}

// TestWALTornTailTruncation is the torn-tail property test: whatever byte
// offset a crash tears the final segment at, recovery keeps exactly the
// records whose frames survive intact and loses only the tail.
func TestWALTornTailTruncation(t *testing.T) {
	master := t.TempDir()
	w, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := walFiles(master)
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, %v", files, err)
	}
	data, err := os.ReadFile(filepath.Join(master, files[0]))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: offset after header, then each frame.
	var bounds []int
	off := segHeaderLen
	for off < len(data) {
		fr, err := parseFrame(data[off:])
		if err != nil {
			t.Fatalf("master segment torn at %d: %v", off, err)
		}
		off += fr.size
		bounds = append(bounds, off)
	}

	for cut := segHeaderLen; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, files[0]), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		got := collect(t, w2, 0, 0)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		if w2.NextSeq() != uint64(want) {
			t.Fatalf("cut %d: NextSeq %d, want %d", cut, w2.NextSeq(), want)
		}
		// The log must accept appends after repair.
		if _, err := w2.Append(time.Unix(2000, 0), []byte("resume")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := w2.Sync(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		w2.Close()
	}
}

// addWALSeeds seeds a WAL fuzz target with the torn-tail test's 20-record
// segment body, cut mid-frame and at a frame boundary, with one bit
// flipped, and with a frame out of seq.
func addWALSeeds(f *testing.F) {
	master := f.TempDir()
	w, err := Open(master, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(time.Unix(int64(1000+i), 0), []byte(fmt.Sprintf("payload-%04d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(master, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	body := data[segHeaderLen:]
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(body)
	f.Add(body[:len(body)-3])
	f.Add(body[:frameOverhead+len("payload-0000")])
	f.Add(flipped)
	f.Add(appendFrame(nil, 7, 0, []byte("out of seq")))
	f.Add([]byte{})
}

// openFuzzSegment writes tail after a valid segment header as the only
// segment of a fresh directory and opens it. It returns the segment's
// path and the bytes written; w is nil when Open refused the segment.
func openFuzzSegment(t *testing.T, tail []byte) (w *WAL, path string, input []byte) {
	dir := t.TempDir()
	path = filepath.Join(dir, segName(0))
	input = append(appendSegHeader(nil, 0), tail...)
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	// No durability is under test here.
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		return nil, path, input // refused, never repaired silently
	}
	t.Cleanup(func() { w.Close() })
	return w, path, input
}

// FuzzWALRecover writes arbitrary bytes after a valid segment header and
// opens the WAL. Open must either refuse the segment or truncate it to a
// prefix of the input that ReadSeq returns intact: every frame in seq
// order, as many as NextSeq reports, and re-encoding byte for byte to the
// segment left on disk.
func FuzzWALRecover(f *testing.F) {
	addWALSeeds(f)
	f.Fuzz(func(t *testing.T, tail []byte) {
		w, path, input := openFuzzSegment(t, tail)
		if w == nil {
			return
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(input, disk) {
			t.Fatalf("recovery left %d bytes that are not a prefix of the %d-byte input", len(disk), len(input))
		}
		rebuilt := appendSegHeader(nil, 0)
		next := uint64(0)
		if err := w.ReadSeq(0, 0, func(e Entry) error {
			if e.Seq != next {
				t.Fatalf("ReadSeq returned seq %d, want %d", e.Seq, next)
			}
			next++
			rebuilt = appendFrame(rebuilt, e.Seq, e.Time.UnixNano(), e.Payload)
			return nil
		}); err != nil {
			t.Fatalf("ReadSeq after recovery: %v", err)
		}
		if next != w.NextSeq() {
			t.Fatalf("ReadSeq returned %d records, NextSeq is %d", next, w.NextSeq())
		}
		if !bytes.Equal(rebuilt, disk) {
			t.Fatal("recovered segment does not re-encode from what ReadSeq returns")
		}
	})
}

// FuzzWALRedact recovers the same inputs as FuzzWALRecover, then redacts
// one recovered record, picked by the input's length: that frame alone
// must change, read back as the tombstone, and the WAL must reopen to the
// same NextSeq.
func FuzzWALRedact(f *testing.F) {
	addWALSeeds(f)
	f.Fuzz(func(t *testing.T, tail []byte) {
		w, path, _ := openFuzzSegment(t, tail)
		if w == nil || w.NextSeq() == 0 {
			return
		}
		next := w.NextSeq()
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		target := uint64(len(tail)) % next
		tombstone := []byte(fmt.Sprintf("redacted-%d", len(tail)))
		if err := w.RedactMany([]uint64{target}, func(uint64, []byte) ([]byte, error) { return tombstone, nil }); err != nil {
			t.Fatalf("redact seq %d: %v", target, err)
		}
		if got := collect(t, w, target, target+1); len(got) != 1 || !bytes.Equal(got[0].Payload, tombstone) {
			t.Fatalf("seq %d after redaction reads back as %+v", target, got)
		}
		redacted, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		before, after := frames(t, disk), frames(t, redacted)
		if len(after) != len(before) {
			t.Fatalf("redaction left %d frames, want %d", len(after), len(before))
		}
		for i := range before {
			if uint64(i) != target && !bytes.Equal(before[i], after[i]) {
				t.Fatalf("redacting seq %d changed frame %d", target, i)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w, err = Open(filepath.Dir(path), Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after redaction: %v", err)
		}
		defer w.Close()
		if w.NextSeq() != next {
			t.Fatalf("reopen after redaction: NextSeq %d, want %d", w.NextSeq(), next)
		}
	})
}

// frames splits a segment file's bytes into its raw frames.
func frames(t *testing.T, seg []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for off := segHeaderLen; off < len(seg); {
		fr, err := parseFrame(seg[off:])
		if err != nil {
			t.Fatalf("bad frame at offset %d: %v", off, err)
		}
		out = append(out, fr.raw)
		off += fr.size
	}
	return out
}

func TestWALCorruptionInSealedSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 60)
	if w.Segments() < 2 {
		t.Fatalf("need at least 2 segments, have %d", w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := walFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, files[0]) // a sealed (non-final) segment
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil {
		t.Fatal("corrupted sealed segment opened without error")
	}
}

// TestWALRecoveryRefusalsLeaveFilesUntouched checks two refusals that
// must not repair anything: a bad frame in a sealed segment, and a last
// segment whose header starts at the wrong seq (a readable header is not
// a torn one, so it is not rebuilt).
func TestWALRecoveryRefusalsLeaveFilesUntouched(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		damage     func(files []string, read func(string) []byte) (string, []byte)
	}{
		{"sealed bad frame", "bad frame at offset", func(files []string, read func(string) []byte) (string, []byte) {
			b := read(files[0])
			b[len(b)/2] ^= 0xFF
			return files[0], b
		}},
		{"last header seq", "starts at seq", func(files []string, read func(string) []byte) (string, []byte) {
			last := files[len(files)-1]
			b := read(last)
			binary.BigEndian.PutUint64(b[8:], binary.BigEndian.Uint64(b[8:])+1)
			return last, b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 0, 60)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			files, err := walFiles(dir)
			if err != nil || len(files) < 3 {
				t.Fatalf("files = %v, %v; want at least 3 segments", files, err)
			}
			read := func(name string) []byte {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			name, damaged := tc.damage(files, read)
			if err := os.WriteFile(filepath.Join(dir, name), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			before := map[string][]byte{}
			for _, f := range files {
				before[f] = read(f)
			}
			_, err = Open(dir, Options{SegmentBytes: 256})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want ErrCorrupt with %q", err, tc.want)
			}
			for _, f := range files {
				if !bytes.Equal(read(f), before[f]) {
					t.Fatalf("refused Open changed %s", f)
				}
			}
		})
	}
}

func TestWALBackpressureAndConcurrentAppend(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const (
		goroutines = 8
		perG       = 500
	)
	done := make(chan error, goroutines)
	payload := bytes.Repeat([]byte("x"), 64)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < perG; i++ {
				if _, err := w.Append(time.Time{}, payload); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, w, 0, 0)
	if len(got) != goroutines*perG {
		t.Fatalf("read %d entries, want %d", len(got), goroutines*perG)
	}
	for i, e := range got {
		if e.Seq != uint64(i) {
			t.Fatalf("gap at %d: seq %d", i, e.Seq)
		}
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(time.Time{}, []byte("x")); err == nil {
		t.Fatal("append on closed WAL succeeded")
	}
}

// TestWALReadStreamsAcrossScanBuffer reads frames that straddle the scan
// buffer's chunk boundaries and frames larger than the whole buffer, in
// full and in sub-ranges, from sealed and active segments alike.
func TestWALReadStreamsAcrossScanBuffer(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 8 << 20, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sizes := []int{10, 300 << 10, 2*scanBufSize + 5, 7, scanBufSize - frameOverhead, 1, 700 << 10, scanBufSize + 1, 3}
	for i := 0; i < 3; i++ {
		sizes = append(sizes, sizes...)
	}
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26)}, sizes[i])
	}
	for i := range sizes {
		if _, err := w.Append(time.Unix(int64(i), 0), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() < 2 {
		t.Fatalf("want several segments, have %d", w.Segments())
	}
	for _, r := range [][2]uint64{{0, 0}, {3, 5}, {5, 40}, {17, 18}, {uint64(len(sizes)) - 2, 0}} {
		got := collect(t, w, r[0], r[1])
		to := r[1]
		if to == 0 {
			to = uint64(len(sizes))
		}
		if len(got) != int(to-r[0]) {
			t.Fatalf("ReadSeq(%d, %d) returned %d entries", r[0], r[1], len(got))
		}
		for j, e := range got {
			i := int(r[0]) + j
			if e.Seq != uint64(i) || !bytes.Equal(e.Payload, payload(i)) {
				t.Fatalf("ReadSeq(%d, %d): entry %d is seq %d with %d bytes, want seq %d with %d", r[0], r[1], j, e.Seq, len(e.Payload), i, sizes[i])
			}
		}
	}
}

// TestWALConcurrentReadsBesideAppends runs several readers over a WAL
// that is rotating under appends: each scan must see a contiguous run of
// intact payloads, whichever pooled scan buffer it was handed.
func TestWALConcurrentReadsBesideAppends(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 64 << 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := func(seq uint64) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("p%d.", seq)), 1+int(seq%50))
	}
	const n = 3000
	stop := make(chan struct{})
	readers := make(chan struct{}, 3)
	for r := 0; r < cap(readers); r++ {
		go func(r int) {
			defer func() { readers <- struct{}{} }()
			for i := uint64(r); ; i += 97 {
				select {
				case <-stop:
					return
				default:
				}
				from := i % n
				next := from
				if err := w.ReadSeq(from, from+200, func(e Entry) error {
					if e.Seq != next || !bytes.Equal(e.Payload, payload(e.Seq)) {
						return fmt.Errorf("read seq %d (want %d) with a wrong payload", e.Seq, next)
					}
					next++
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for seq := uint64(0); seq < n; seq++ {
		if _, err := w.Append(time.Time{}, payload(seq)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for r := 0; r < cap(readers); r++ {
		<-readers
	}
	if got := collect(t, w, 0, 0); len(got) != n {
		t.Fatalf("read %d entries, want %d", len(got), n)
	}
}

// TestWALCommitBuffersReused: group commit swaps two buffers instead of
// growing a fresh one per batch, so once both have grown to the largest
// batch the committer sees, a run of appends allocates less than the
// payload bytes it carries. How large a batch gets depends on scheduling,
// so runs repeat (the first is the warm-up) until one finds the buffers
// grown, at most five; a WAL that regrows per batch allocates more than
// the payload on every run.
func TestWALCommitBuffersReused(t *testing.T) {
	w, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := bytes.Repeat([]byte("p"), 200)
	const n, runs = 100_000, 5
	carried := uint64(n * len(payload))
	var grew []uint64
	for r := 0; r < runs; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := w.Append(time.Unix(int64(i), 0), payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if r > 0 && after.TotalAlloc-before.TotalAlloc < carried {
			return
		}
		grew = append(grew, after.TotalAlloc-before.TotalAlloc)
	}
	t.Fatalf("runs of %d appends of %d B allocated %v B, want one under the %d payload bytes", n, len(payload), grew, carried)
}

// TestWALCommitBuffersSurviveDrainExits runs concurrent appenders in
// bursts, waiting between bursts until the committer goroutine has
// exited, so every burst starts a fresh committer on the buffers the last
// one left. Every frame must read back byte-exact.
func TestWALCommitBuffersSurviveDrainExits(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 256 << 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const (
		bursts     = 20
		goroutines = 4
		perBurst   = 50
	)
	payload := func(g, i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("g%d.%d|", g, i)), 1+(g*7+i*13)%400)
	}
	type sent struct {
		seq  uint64
		g, i int
	}
	sents := make([][]sent, goroutines)
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := b * perBurst; i < (b+1)*perBurst; i++ {
					seq, err := w.Append(time.Unix(int64(i), int64(g)), payload(g, i))
					if err != nil {
						t.Error(err)
						return
					}
					sents[g] = append(sents[g], sent{seq, g, i})
				}
			}(g)
		}
		wg.Wait()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			w.pendMu.Lock()
			idle := !w.draining
			w.pendMu.Unlock()
			if idle {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("committer still running 5 s after Sync")
			}
		}
	}
	want := make(map[uint64]sent)
	for _, ss := range sents {
		for _, s := range ss {
			want[s.seq] = s
		}
	}
	got := collect(t, w, 0, 0)
	if len(got) != len(want) || len(got) != bursts*goroutines*perBurst {
		t.Fatalf("read %d entries, appended %d", len(got), len(want))
	}
	for _, e := range got {
		s, ok := want[e.Seq]
		if !ok || !bytes.Equal(e.Payload, payload(s.g, s.i)) || !e.Time.Equal(time.Unix(int64(s.i), int64(s.g))) {
			t.Fatalf("seq %d read back as %d bytes at %v; appended by g%d as record %d", e.Seq, len(e.Payload), e.Time, s.g, s.i)
		}
	}
}

// TestWALOutsizedFrameLeavesNoOutsizedSpare: a batch grown past twice the
// pending bound by one outsized frame is dropped after its commit rather
// than kept for reuse.
func TestWALOutsizedFrameLeavesNoOutsizedSpare(t *testing.T) {
	w, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := bytes.Repeat([]byte("B"), maxPayload) // the largest readable frame, over 2×maxPendingBytes
	for _, p := range [][]byte{[]byte("before"), big, []byte("after")} {
		if _, err := w.Append(time.Time{}, p); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	w.pendMu.Lock()
	spare, pending := cap(w.spare), cap(w.pending)
	w.pendMu.Unlock()
	if spare > 2*maxPendingBytes || pending > 2*maxPendingBytes {
		t.Fatalf("after an outsized frame the WAL keeps buffers of %d and %d B, bound %d", spare, pending, 2*maxPendingBytes)
	}
	got := collect(t, w, 0, 0)
	if len(got) != 3 || string(got[0].Payload) != "before" || !bytes.Equal(got[1].Payload, big) || string(got[2].Payload) != "after" {
		t.Fatalf("read back %d entries around the outsized frame", len(got))
	}
}

// TestWALRefusesOutsizedPayload: a payload over maxPayload is refused with
// ErrTooLarge before it gets a seq, so the records around it stay readable
// and the seq space has no hole, before and after a reopen.
func TestWALRefusesOutsizedPayload(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(time.Time{}, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append(time.Time{}, make([]byte, maxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("outsized append = seq %d, %v; want ErrTooLarge", seq, err)
	}
	if _, err := w.Append(time.Time{}, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		got := collect(t, w, 0, 0)
		if len(got) != 2 || string(got[0].Payload) != "before" || string(got[1].Payload) != "after" {
			t.Fatalf("%s: read back %d entries, want before and after", when, len(got))
		}
		if n := w.NextSeq(); n != 2 {
			t.Fatalf("%s: NextSeq = %d, want 2", when, n)
		}
	}
	check("before reopen")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = Open(dir, Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	check("after reopen")
}
