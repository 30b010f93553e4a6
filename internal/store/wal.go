package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lciot/internal/fault"
	"lciot/internal/telemetry"
)

// Failpoints on the WAL's risky I/O seams (internal/fault; free when
// disarmed). They let tests and chaos drills provoke exactly the disk
// failures the recovery and degradation machinery claims to survive:
// ENOSPC and torn (partial) writes on commit, fsync errors, and rotation
// failures.
var (
	fpWalWrite  = fault.New("store.wal.write")
	fpWalFsync  = fault.New("store.wal.fsync")
	fpWalRotate = fault.New("store.wal.rotate")
)

// Errors reported by the WAL.
var (
	ErrClosed = errors.New("store: wal closed")
	// ErrTooLarge reports a payload over the largest frame recovery
	// accepts (maxPayload); Append refuses it before issuing a seq.
	ErrTooLarge = errors.New("store: payload too large")
	// ErrNotRetained reports a redaction target outside the retained,
	// committed sequence range.
	ErrNotRetained = errors.New("store: seq not retained")
)

// Options configures a WAL. The zero value is ready for production use.
type Options struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// exceeds it, the next batch opens a new segment. 0 means 64 MiB.
	SegmentBytes int64
	// MaxSegments, when > 0, bounds retention: after a rotation the oldest
	// sealed segments are deleted until at most MaxSegments files remain.
	// Audit stores leave this 0 (history is the point); bounded journals
	// (gateway store-and-forward) set it.
	MaxSegments int
	// NoSync skips fsync on commit — bulk loads and tests only. Committed
	// records may be lost on crash; Sync still waits for the write.
	NoSync bool
}

// An Entry is one record read back from the log. Payload aliases an
// internal read buffer and is only valid for the duration of the callback
// it is handed to.
type Entry struct {
	Seq     uint64
	Time    time.Time
	Payload []byte
}

// segment is the in-memory metadata for one segment file.
type segment struct {
	firstSeq uint64
	count    uint64
	path     string
	size     int64
}

func (s *segment) endSeq() uint64 { return s.firstSeq + s.count }

// A WAL is a segmented, CRC-framed, append-only log with batched group
// commit. Append assigns a sequence number, enqueues the framed record and
// returns; a committer goroutine (started on demand, exiting when idle)
// writes each accumulated batch with a single fsync. Sync waits on the
// enqueued/committed watermark, so it is bounded even under sustained
// ingest — the same design as audit.Log's AppendAsync/Flush pair, extended
// with durability.
type WAL struct {
	dir  string
	opts Options

	// mu guards segment metadata and the active file. Only the committer
	// writes; readers snapshot metadata under mu and open files read-only.
	mu     sync.Mutex
	segs   []*segment
	active *os.File
	// pins refcounts sequence numbers that retention must not drop:
	// a pending tombstone (a scheduled redaction that has not executed
	// yet) pins its target so MaxSegments rotation and Prune keep the
	// segment holding it until the pin is released. pinMin caches the
	// smallest pinned seq (the only one front-only removal cares about);
	// pinMinStale marks it for lazy recomputation after a release, so
	// rotation checks stay O(1) however many data are pinned.
	pins        map[uint64]int
	pinMin      uint64
	pinMinStale bool

	// pendMu guards the pending batch, its spare and the commit watermark.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  []byte // encoded frames awaiting commit
	pendN    int    // records in pending
	// spare is the empty buffer the committer swaps in for pending: the
	// last committed batch, handed back, so group commit reuses two
	// buffers instead of regrowing one per batch. Both outlive the
	// committer goroutine.
	spare   []byte
	nextSeq uint64 // next sequence number to assign
	// enqueued/completed count records over the WAL's lifetime; Sync waits
	// for completed to reach enqueued-as-of-the-call.
	enqueued  uint64
	completed uint64
	// durableSeq is the boundary of durability: every record with
	// Seq < durableSeq has been written (and, unless NoSync, fsynced).
	durableSeq uint64
	draining   bool
	err        error // sticky I/O error
	closed     bool

	// appendHist/fsyncHist time the WAL's two latencies operators watch:
	// the enqueue cost a caller pays and the fsync cost group commit pays.
	// Both are zero-cost while telemetry is disabled.
	appendHist *telemetry.Histogram
	fsyncHist  *telemetry.Histogram
}

// maxPendingBytes bounds the in-memory batch; appenders beyond it block
// until the committer catches up (backpressure rather than unbounded
// memory). A committed batch whose capacity exceeds twice the bound (one
// outsized frame) is dropped rather than kept as the spare, so a WAL
// holds at most about two bounded buffers.
const maxPendingBytes = 8 << 20

// Open opens (creating if necessary) a WAL in dir, replaying existing
// segments: every frame is CRC-checked, sequence continuity is enforced,
// and a torn tail — the expected state after a crash mid-write — is
// truncated from the final segment. Corruption anywhere else is reported
// as ErrCorrupt, never repaired silently.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}
	w.pendCond = sync.NewCond(&w.pendMu)
	if err := w.recover(); err != nil {
		return nil, err
	}
	reg := telemetry.Default()
	w.appendHist = reg.Histogram("store_wal_append_ns", "dir", dir)
	w.fsyncHist = reg.Histogram("store_wal_fsync_ns", "dir", dir)
	reg.GaugeFunc("store_wal_segments", func() float64 { return float64(w.Segments()) },
		"dir", dir)
	return w, nil
}

// recover scans the directory, validates every segment and prepares the
// active one for appending.
func (w *WAL) recover() error {
	names, err := filepath.Glob(filepath.Join(w.dir, "wal-*.seg"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)

	var expected uint64
	for i, path := range names {
		last := i == len(names)-1
		seg, next, err := w.recoverSegment(path, i == 0, expected, last)
		if err != nil {
			return err
		}
		expected = next
		w.segs = append(w.segs, seg)
	}

	if len(w.segs) == 0 {
		seg, f, err := w.createSegment(0)
		if err != nil {
			return err
		}
		w.segs = []*segment{seg}
		w.active = f
		w.nextSeq, w.durableSeq = 0, 0
		return nil
	}

	tail := w.segs[len(w.segs)-1]
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	w.active = f
	w.nextSeq, w.durableSeq = expected, expected
	return nil
}

// recoverSegment validates one segment file. first marks the oldest
// segment (whose header firstSeq is trusted — earlier segments may have
// been pruned); last marks the newest, the only one allowed a torn tail.
// It returns the segment metadata and the sequence expected next.
func (w *WAL) recoverSegment(path string, first bool, expected uint64, last bool) (*segment, uint64, error) {
	var seg *segment // set once the header parses
	end, torn, err := walkSegment(path, func(firstSeq uint64) error {
		seg = &segment{firstSeq: firstSeq, path: path}
		if !first && firstSeq != expected {
			return fmt.Errorf("%w: %s starts at seq %d, want %d", ErrCorrupt, path, firstSeq, expected)
		}
		return nil
	}, func(fr frameInfo) error {
		if fr.seq != seg.endSeq() {
			return fmt.Errorf("%w: %s: frame seq %d, want %d", ErrCorrupt, path, fr.seq, seg.endSeq())
		}
		seg.count++
		return nil
	})
	if seg == nil && last && errors.Is(err, ErrCorrupt) {
		// A crash between file creation and the first committed header
		// write leaves a short or garbled header; rebuild the segment.
		if err := w.truncateTo(path, 0, appendSegHeader(nil, expected)); err != nil {
			return nil, 0, err
		}
		return &segment{firstSeq: expected, path: path, size: segHeaderLen}, expected, nil
	}
	if err != nil {
		return nil, 0, err
	}
	seg.size = end
	if torn {
		if !last {
			return nil, 0, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, path, end)
		}
		// Torn tail: drop everything from the first bad frame on.
		if err := w.truncateTo(path, end, nil); err != nil {
			return nil, 0, err
		}
	}
	return seg, seg.endSeq(), nil
}

// truncateTo cuts path at off, writes tail there and fsyncs the repair.
func (w *WAL) truncateTo(path string, off int64, tail []byte) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.WriteAt(tail, off); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return w.syncFile(f)
}

// createSegment creates and syncs a new segment file starting at firstSeq.
func (w *WAL) createSegment(firstSeq uint64) (*segment, *os.File, error) {
	path := filepath.Join(w.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(appendSegHeader(nil, firstSeq)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if err := w.syncFile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := w.syncDir(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &segment{firstSeq: firstSeq, path: path, size: segHeaderLen}, f, nil
}

func (w *WAL) syncFile(f *os.File) error {
	if act := fpWalFsync.Check(); act != nil {
		act.Wait()
		if act.Err != nil {
			return fmt.Errorf("store: fsync: %w", act.Err)
		}
	}
	if w.opts.NoSync {
		return nil
	}
	start := w.fsyncHist.Start()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.fsyncHist.ObserveSince(start)
	return nil
}

// syncDir persists directory entries (segment creation and deletion).
func (w *WAL) syncDir() error {
	if w.opts.NoSync {
		return nil
	}
	d, err := os.Open(w.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Append assigns the next sequence number to the payload, enqueues the
// framed record for group commit and returns immediately. The record is
// durable once Sync returns (or once DurableSeq passes its seq). Append
// never touches the disk itself, so callers on enforcement hot paths do
// not block on I/O (beyond bounded backpressure when the committer falls
// behind). A payload over 16 MiB is refused with ErrTooLarge: recovery
// would read its frame as a torn tail.
func (w *WAL) Append(t time.Time, payload []byte) (uint64, error) {
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("%w: %d bytes, limit %d", ErrTooLarge, len(payload), maxPayload)
	}
	hstart := w.appendHist.Start()
	if t.IsZero() {
		t = time.Now()
	}
	nano := t.UnixNano()
	w.pendMu.Lock()
	for len(w.pending) >= maxPendingBytes && w.err == nil && !w.closed {
		w.pendCond.Wait()
	}
	if w.err != nil || w.closed {
		err := w.err
		w.pendMu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return 0, err
	}
	seq := w.nextSeq
	w.nextSeq++
	w.pending = appendFrame(w.pending, seq, nano, payload)
	w.pendN++
	w.enqueued++
	start := !w.draining
	w.draining = true
	w.pendMu.Unlock()
	if start {
		go w.drain()
	}
	w.appendHist.ObserveSince(hstart)
	return seq, nil
}

// Sync blocks until every record enqueued before the call is committed —
// written and (unless NoSync) fsynced — and returns the first I/O error
// the committer hit, if any. Records enqueued after the call are not
// waited for, so Sync is bounded under sustained ingest.
func (w *WAL) Sync() error {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	target := w.enqueued
	for w.completed < target && w.err == nil {
		w.pendCond.Wait()
	}
	return w.err
}

// drain is the committer: it repeatedly swaps the pending batch for the
// spare buffer and commits it with one write and one fsync, hands the
// committed buffer back as the next spare, and exits once the batch stays
// empty.
func (w *WAL) drain() {
	for {
		w.pendMu.Lock()
		batch, n := w.pending, w.pendN
		batchEnd := w.nextSeq
		sticky := w.err
		if n == 0 {
			w.draining = false
			w.pendCond.Broadcast()
			w.pendMu.Unlock()
			return
		}
		w.pending, w.spare, w.pendN = w.spare, nil, 0
		w.pendCond.Broadcast() // release writers blocked on backpressure
		w.pendMu.Unlock()

		// After a commit error the file tail is undefined (a write may
		// have landed partially); committing further batches on top would
		// advance the durable boundary past records recovery will discard.
		// Drop the batch and let the sticky error surface via Sync.
		err := sticky
		if err == nil {
			err = w.commitBatch(batch, uint64(n), batchEnd)
		}

		w.pendMu.Lock()
		if err != nil && w.err == nil {
			w.err = err
		}
		w.completed += uint64(n)
		if err == nil {
			w.durableSeq = batchEnd
		}
		if cap(batch) <= 2*maxPendingBytes {
			w.spare = batch[:0]
		}
		w.pendCond.Broadcast()
		w.pendMu.Unlock()
	}
}

// commitBatch writes one encoded batch and fsyncs once per touched
// segment — in steady state exactly one fsync for the whole batch, the
// group commit that amortises durability across every record that arrived
// while the previous fsync was in flight. Batches larger than the
// remaining segment room are split at frame boundaries across a rotation.
func (w *WAL) commitBatch(batch []byte, n, batchEnd uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := batchEnd - n // first sequence number in the batch
	off := 0
	for off < len(batch) {
		seg := w.segs[len(w.segs)-1]
		// Take the largest frame-aligned run that fits the segment. An
		// empty segment always accepts at least one frame, so oversized
		// records still commit.
		start := off
		var count uint64
		for off < len(batch) {
			size := frameOverhead + int(binary.BigEndian.Uint32(batch[off:]))
			if (count > 0 || seg.count > 0) && seg.size+int64(off-start+size) > w.opts.SegmentBytes {
				break
			}
			off += size
			count++
		}
		if count == 0 {
			if err := w.rotateLocked(seq); err != nil {
				return err
			}
			continue
		}
		if _, err := w.writeActive(batch[start:off]); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := w.syncFile(w.active); err != nil {
			return err
		}
		seg.count += count
		seg.size += int64(off - start)
		seq += count
	}
	return nil
}

// writeActive writes b to the active segment file, honouring the
// store.wal.write failpoint: an armed partial-write action lands only the
// injected byte prefix before failing — exactly the torn tail a real
// crash mid-write leaves, which recovery must truncate.
func (w *WAL) writeActive(b []byte) (int, error) {
	if act := fpWalWrite.Check(); act != nil {
		act.Wait()
		n := 0
		if act.Bytes > 0 {
			short := b
			if act.Bytes < len(short) {
				short = short[:act.Bytes]
			}
			n, _ = w.active.Write(short)
		}
		err := act.Err
		if err == nil {
			err = fault.ErrInjected
		}
		return n, err
	}
	return w.active.Write(b)
}

// rotateLocked seals the active segment and opens a fresh one starting at
// nextSeq; w.mu must be held. Retention (MaxSegments) is applied here.
func (w *WAL) rotateLocked(nextSeq uint64) error {
	if act := fpWalRotate.Check(); act != nil {
		act.Wait()
		if act.Err != nil {
			return fmt.Errorf("store: rotate: %w", act.Err)
		}
	}
	if err := w.syncFile(w.active); err != nil {
		return err
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg, f, err := w.createSegment(nextSeq)
	if err != nil {
		return err
	}
	w.segs = append(w.segs, seg)
	w.active = f
	if w.opts.MaxSegments > 0 {
		removed := false
		for len(w.segs) > w.opts.MaxSegments {
			old := w.segs[0]
			// A segment referenced by a pending tombstone must survive
			// retention: dropping it would turn a scheduled redaction into
			// silent data loss (and break the erasure evidence). The pin
			// also blocks everything behind it — segments are removed
			// strictly from the front to keep recovery's continuity check.
			if w.pinnedLocked(old.firstSeq, old.endSeq()) {
				break
			}
			if err := os.Remove(old.path); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			w.segs = w.segs[1:]
			removed = true
		}
		if removed {
			if err := w.syncDir(); err != nil {
				return err
			}
		}
	}
	return nil
}

// pinnedLocked reports whether a pinned seq blocks removal of the front
// segment covering [from, to); w.mu must be held. Segments are removed
// strictly from the front, so the cached minimum pinned seq decides: any
// pin below `to` (including a stale pin referencing an already-pruned
// record, conservatively) keeps the segment.
func (w *WAL) pinnedLocked(from, to uint64) bool {
	_ = from
	if len(w.pins) == 0 {
		return false
	}
	if w.pinMinStale {
		first := true
		for seq := range w.pins {
			if first || seq < w.pinMin {
				w.pinMin = seq
				first = false
			}
		}
		w.pinMinStale = false
	}
	return w.pinMin < to
}

// Pin marks a committed record as referenced (typically by a pending
// tombstone): retention (MaxSegments) and Prune will not drop the segment
// holding it until the returned release function is called. Pins nest;
// releasing is idempotent.
func (w *WAL) Pin(seq uint64) (release func()) {
	w.mu.Lock()
	if w.pins == nil {
		w.pins = make(map[uint64]int)
	}
	if len(w.pins) == 0 || (!w.pinMinStale && seq < w.pinMin) {
		w.pinMin = seq
	}
	w.pins[seq]++
	w.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			w.mu.Lock()
			if w.pins[seq]--; w.pins[seq] <= 0 {
				delete(w.pins, seq)
				if seq == w.pinMin {
					w.pinMinStale = true
				}
			}
			w.mu.Unlock()
		})
	}
}

// FirstSeq returns the sequence number of the oldest retained record.
func (w *WAL) FirstSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segs[0].firstSeq
}

// NextSeq returns the sequence number the next Append will be assigned.
func (w *WAL) NextSeq() uint64 {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	return w.nextSeq
}

// DurableSeq returns the durability boundary: every record with a smaller
// sequence number has been committed to disk.
func (w *WAL) DurableSeq() uint64 {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	return w.durableSeq
}

// Segments returns the number of on-disk segment files.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// snapshotSegs returns the segment metadata as value copies taken under
// the lock: the committer keeps mutating the live *segment structs
// (count, size, time bounds) while readers iterate, so handing out the
// pointers would race.
func (w *WAL) snapshotSegs() []segment {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]segment, len(w.segs))
	for i, s := range w.segs {
		out[i] = *s
	}
	return out
}

// ReadSeq streams every committed record with from <= Seq < to (to == 0
// means "to the end") through fn in sequence order. It syncs first, so a
// preceding Append is always visible. fn returning an error stops the
// scan and surfaces the error. The scan stops at the first frame at or
// past to; it never reads the rest of that segment. A torn frame ends a
// segment's scan silently: it is either the in-flight tail of the active
// segment or a tail the next Open will truncate. Entry.Payload is only
// valid during fn.
func (w *WAL) ReadSeq(from, to uint64, fn func(Entry) error) error {
	if err := w.Sync(); err != nil {
		return err
	}
	limit := w.DurableSeq()
	if to == 0 || to > limit {
		to = limit
	}
	for _, seg := range w.snapshotSegs() {
		if seg.firstSeq >= to {
			break
		}
		if seg.endSeq() <= from {
			continue
		}
		if _, _, err := walkSegment(seg.path, nil, func(fr frameInfo) error {
			if fr.seq >= to {
				return errStopScan
			}
			if fr.seq < from {
				return nil
			}
			return fn(Entry{Seq: fr.seq, Time: time.Unix(0, fr.unixNano), Payload: fr.payload})
		}); err != nil {
			return err
		}
	}
	return nil
}

// errStopScan terminates a scan early without surfacing an error.
var errStopScan = errors.New("store: stop scan")

// scanBufSize is the read chunk of a segment walk. Frames are parsed in
// place in a pooled buffer of this size, so a walk costs one buffer
// however large the segment is, and a walk that stops early reads little
// more of the file than it used.
const scanBufSize = 1 << 20

var scanBufs = sync.Pool{New: func() any { b := make([]byte, scanBufSize); return &b }}

// walkSegment is the only code that reads segment files. It streams the
// file at path through a pooled scan buffer, hands the header's firstSeq
// to head (when not nil), then every CRC-checked frame to fn in file
// order; a frame's payload and raw bytes alias the buffer and are only
// valid during fn. It returns the offset just past the last frame
// consumed, and whether the walk stopped at a torn or bad frame rather
// than at the end of the file: what that means is the caller's policy. A
// short or garbled header is ErrCorrupt, returned before head runs; fn
// returning errStopScan ends the walk early with a nil error.
func walkSegment(path string, head func(firstSeq uint64) error, fn func(frameInfo) error) (end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	bp := scanBufs.Get().(*[]byte)
	buf := *bp
	defer func() {
		if len(buf) == scanBufSize { // a buffer grown for a huge frame is not kept
			scanBufs.Put(bp)
		}
	}()
	lo, hi := 0, 0 // buf[lo:hi] is read but not yet consumed
	// fill makes buf[lo:hi] hold at least need bytes, compacting or growing
	// buf as needed; it reports false when the file ends first.
	fill := func(need int) (bool, error) {
		for hi-lo < need {
			if need > len(buf)-lo {
				if need > len(buf) {
					grown := make([]byte, need)
					copy(grown, buf[lo:hi])
					buf = grown
				} else {
					copy(buf, buf[lo:hi])
				}
				hi -= lo
				lo = 0
			}
			n, err := f.Read(buf[hi:])
			hi += n
			if err == io.EOF {
				return hi-lo >= need, nil
			}
			if err != nil {
				return false, fmt.Errorf("store: %w", err)
			}
		}
		return true, nil
	}
	if _, err := fill(segHeaderLen); err != nil {
		return 0, false, err
	}
	firstSeq, err := parseSegHeader(buf[:hi])
	if err != nil {
		return 0, false, fmt.Errorf("%s: %w", path, err)
	}
	if head != nil {
		if err := head(firstSeq); err != nil {
			return 0, false, err
		}
	}
	lo, end = segHeaderLen, segHeaderLen
	for {
		ok, err := fill(frameOverhead)
		if err != nil || !ok {
			return end, hi > lo, err // clean end, or a torn frame header
		}
		// A length no frame can have, or one that runs past the end of the
		// file, is torn without reading (or allocating) any further.
		n := binary.BigEndian.Uint32(buf[lo:])
		if n > maxPayload || end+frameOverhead+int64(n) > fi.Size() {
			return end, true, nil
		}
		if ok, err = fill(frameOverhead + int(n)); err != nil || !ok {
			return end, err == nil, err // the file shrank under us
		}
		fr, err := parseFrame(buf[lo:hi])
		if err != nil {
			return end, true, nil // bad CRC
		}
		if err := fn(fr); err != nil {
			if errors.Is(err, errStopScan) {
				err = nil
			}
			return end, false, err
		}
		lo += fr.size
		end += int64(fr.size)
	}
}

// Prune deletes whole segments whose every record has Seq < upto — the
// disk-tier analogue of audit.Log.Prune. The active segment is first
// rotated away when it holds prunable records, so Prune(NextSeq()) after a
// Sync empties the log down to one fresh segment. It returns the number
// of segment files removed.
func (w *WAL) Prune(upto uint64) (int, error) {
	if err := w.Sync(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	active := w.segs[len(w.segs)-1]
	if active.count > 0 && active.endSeq() <= upto {
		if err := w.rotateLocked(active.endSeq()); err != nil {
			return 0, err
		}
	}
	removed := 0
	for len(w.segs) > 1 && w.segs[0].endSeq() <= upto {
		if w.pinnedLocked(w.segs[0].firstSeq, w.segs[0].endSeq()) {
			break // pending tombstone: keep the segment (and the front order)
		}
		if err := os.Remove(w.segs[0].path); err != nil {
			return removed, fmt.Errorf("store: %w", err)
		}
		w.segs = w.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := w.syncDir(); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// RedactMany rewrites the committed records with the given sequence
// numbers, replacing each payload with whatever replace returns. Each
// affected segment is rewritten exactly once — to a temporary file,
// fsynced and atomically renamed into place (frame sizes may change) — so
// a crash mid-redaction leaves either the old or the new segment, never a
// torn one, and a 10k-record erasure costs one rewrite per segment, not
// per record. Sequence numbers, timestamps and untargeted frames are
// preserved byte for byte. replace returning the payload unchanged makes
// that record a no-op, and a segment whose every targeted record is a
// no-op is left untouched: no rename, no directory sync. The old payload
// aliases the segment walk's read buffer and, like Entry.Payload, is only
// valid during the call.
func (w *WAL) RedactMany(seqs []uint64, replace func(seq uint64, old []byte) ([]byte, error)) error {
	if len(seqs) == 0 {
		return nil
	}
	if err := w.Sync(); err != nil {
		return err
	}
	w.pendMu.Lock()
	durable := w.durableSeq
	w.pendMu.Unlock()
	want := make(map[uint64]bool, len(seqs))
	for _, seq := range seqs {
		if seq >= durable {
			return fmt.Errorf("%w: seq %d not committed (durable through %d)", ErrNotRetained, seq, durable)
		}
		want[seq] = true
	}

	// Hold w.mu for the whole rewrite: the committer also writes under
	// w.mu, so the active file never moves underneath us.
	w.mu.Lock()
	defer w.mu.Unlock()
	matched := 0
	for segIdx, seg := range w.segs {
		hit := false
		for seq := range want {
			if seq >= seg.firstSeq && seq < seg.endSeq() {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		n, err := w.redactSegmentLocked(segIdx, want, replace)
		if err != nil {
			return err
		}
		matched += n
	}
	if matched != len(want) {
		return fmt.Errorf("%w: %d of %d target records not found (pruned?)",
			ErrNotRetained, len(want)-matched, len(want))
	}
	return nil
}

// redactSegmentLocked rewrites one segment, replacing every frame whose
// seq is in want; w.mu must be held. Returns the number of frames
// targeted, changed or not.
func (w *WAL) redactSegmentLocked(segIdx int, want map[uint64]bool,
	replace func(seq uint64, old []byte) ([]byte, error)) (int, error) {
	seg := w.segs[segIdx]
	tmp := seg.path + ".redact"
	matched, changed, written, err := w.writeRedacted(seg.path, tmp, want, replace)
	if err != nil || changed == 0 {
		return matched, err
	}
	activeSeg := segIdx == len(w.segs)-1
	// reattach reopens the (possibly rewritten) segment as the active file
	// at the given tail offset. It runs on every path after the close
	// below — including error paths, where leaving w.active closed would
	// wedge all future appends over a transient I/O failure.
	reattach := func(size int64) error {
		if !activeSeg {
			return nil
		}
		f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := f.Seek(size, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		w.active = f
		return nil
	}
	if activeSeg {
		// The rename is about to pull the file out from under the active
		// handle.
		if err := w.active.Close(); err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
	}
	if err := os.Rename(tmp, seg.path); err != nil {
		// The old segment is still in place; restore the handle on it.
		if rerr := reattach(seg.size); rerr != nil {
			return 0, fmt.Errorf("store: rename: %v; reattach: %w", err, rerr)
		}
		return 0, fmt.Errorf("store: %w", err)
	}
	seg.size = written
	if err := w.syncDir(); err != nil {
		if rerr := reattach(seg.size); rerr != nil {
			return 0, fmt.Errorf("store: dir sync: %v; reattach: %w", err, rerr)
		}
		return 0, err
	}
	if err := reattach(seg.size); err != nil {
		return 0, err
	}
	return matched, nil
}

// writeRedacted streams the segment at path into tmp through one buffered
// handle, replacing the payload of every frame whose seq is in want, and
// fsyncs that handle. Any bad frame is ErrCorrupt: a redaction never
// drops what it cannot read. It returns the number of frames targeted,
// the number whose payload replace changed, and tmp's size; on an error,
// or with nothing changed, tmp is removed.
func (w *WAL) writeRedacted(path, tmp string, want map[uint64]bool,
	replace func(seq uint64, old []byte) ([]byte, error)) (matched, changed int, size int64, err error) {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store: %w", cerr)
		}
		if err != nil || changed == 0 {
			os.Remove(tmp)
		}
		if err != nil {
			matched, changed = 0, 0
		}
	}()
	bw := bufio.NewWriterSize(f, 256<<10)
	write := func(b []byte) error {
		size += int64(len(b))
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	}
	var frame []byte
	end, torn, err := walkSegment(path, func(firstSeq uint64) error {
		return write(appendSegHeader(nil, firstSeq))
	}, func(fr frameInfo) error {
		if !want[fr.seq] {
			return write(fr.raw)
		}
		next, err := replace(fr.seq, fr.payload)
		if err != nil {
			return err
		}
		matched++
		if bytes.Equal(next, fr.payload) {
			return write(fr.raw)
		}
		changed++
		frame = appendFrame(frame[:0], fr.seq, fr.unixNano, next)
		return write(frame)
	})
	switch {
	case err != nil:
		return 0, 0, 0, err
	case torn:
		return 0, 0, 0, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, path, end)
	case changed == 0:
		return matched, 0, 0, nil
	}
	if err = bw.Flush(); err == nil && !w.opts.NoSync {
		err = f.Sync()
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: %w", err)
	}
	return matched, changed, size, nil
}

// Close syncs and closes the WAL. Further appends fail with ErrClosed.
func (w *WAL) Close() error {
	err := w.Sync()
	w.pendMu.Lock()
	if w.closed {
		w.pendMu.Unlock()
		return nil
	}
	w.closed = true
	w.pendCond.Broadcast()
	w.pendMu.Unlock()

	w.mu.Lock()
	defer w.mu.Unlock()
	if cerr := w.active.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("store: %w", cerr)
	}
	return err
}

// IsWALDir reports whether dir looks like a WAL directory (contains at
// least one segment file). Tools use it to distinguish a store directory
// from an exported JSON file.
func IsWALDir(dir string) bool {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	return err == nil && len(names) > 0
}

// walFiles returns the sorted segment file names in dir (test helper and
// tooling support).
func walFiles(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for i, n := range names {
		names[i] = strings.TrimPrefix(n, dir+string(filepath.Separator))
	}
	return names, nil
}
