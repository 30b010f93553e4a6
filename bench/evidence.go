package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/audit"
	"lciot/internal/store"
)

// tailID parses the decimal message id that ends a DataID ("…/<id>").
func tailID(s string) (int64, bool) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 || i == len(s)-1 {
		return 0, false
	}
	var v int64
	for _, c := range []byte(s[i+1:]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// An evidence recorder is the benchmark's audit sink on one domain's log:
// it counts what the chain received and timestamps each flow record's
// commit. Where the log is backed by a store, a record only counts as
// evidence once the store's durable watermark has passed it, which a 1 ms
// poller observes from outside.
type evidence struct {
	r *run
	// durable reads the store's durable watermark (nil: memory-only log).
	durable func() uint64
	// skipAllowed / skipDenied leave a verdict out of the evidence samples
	// (it is still counted): a federated message leaves a flow record on
	// every domain it crosses, and only the last one is its evidence.
	skipAllowed, skipDenied bool

	allowed, denied, refused atomic.Int64 // flow records by verdict; refused ⊂ denied
	records                  atomic.Int64 // every record of any kind
	policyErrors             atomic.Int64
	redactions               atomic.Int64 // Redaction records
	tombstoned               atomic.Int64 // records tombstoned, summed from their notes

	mu      sync.Mutex
	pending []pendingRec
	stop    chan struct{}
	done    chan struct{}
}

type pendingRec struct {
	seq uint64
	id  int64
	at  int64
}

func newEvidence(r *run, durable func() uint64) *evidence {
	e := &evidence{r: r, durable: durable}
	if durable != nil {
		e.stop, e.done = make(chan struct{}), make(chan struct{})
		go e.poll()
	}
	return e
}

// onRecord is the audit sink. The log calls sinks one record at a time in
// chain order, so it needs no locking of its own beyond the pending queue
// it shares with the poller.
func (e *evidence) onRecord(rec audit.Record) {
	t := now()
	e.records.Add(1)
	switch rec.Kind {
	case audit.FlowAllowed:
		e.allowed.Add(1)
	case audit.FlowDenied:
		e.denied.Add(1)
		if strings.HasPrefix(rec.Note, "gateway refused") {
			e.refused.Add(1)
		}
	case audit.Reconfiguration:
		if strings.HasPrefix(rec.Note, "policy error") {
			e.policyErrors.Add(1)
		}
		return
	case audit.Redaction:
		e.redactions.Add(1)
		var n int
		if _, err := fmt.Sscanf(rec.Note, "tombstoned %d records", &n); err == nil {
			e.tombstoned.Add(int64(n))
		}
		return
	default:
		return
	}
	if (rec.Kind == audit.FlowAllowed && e.skipAllowed) || (rec.Kind == audit.FlowDenied && e.skipDenied) {
		return
	}
	id, ok := tailID(rec.DataID)
	if !ok {
		return
	}
	if p, _, ok := e.r.split(id); ok && p.traced {
		e.r.tr.add(span{id: id, kind: spCommit, parent: spSink, start: t, end: t})
	}
	if e.durable == nil {
		e.r.evidenceAt(id, t)
		return
	}
	e.mu.Lock()
	e.pending = append(e.pending, pendingRec{seq: rec.Seq, id: id, at: t})
	e.mu.Unlock()
}

func (e *evidence) poll() {
	defer close(e.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			e.drain()
			return
		case <-tick.C:
			e.drain()
		}
	}
}

// drain moves every pending record the durable watermark now covers into
// the evidence samples, stamped with the time the watermark was observed.
func (e *evidence) drain() {
	d := e.durable()
	t := now()
	e.mu.Lock()
	k := 0
	for k < len(e.pending) && e.pending[k].seq < d {
		k++
	}
	ready := append([]pendingRec(nil), e.pending[:k]...)
	e.pending = append(e.pending[:0], e.pending[k:]...)
	e.mu.Unlock()
	for _, pr := range ready {
		e.r.evidenceAt(pr.id, t)
		if p, _, ok := e.r.split(pr.id); ok && p.traced {
			e.r.tr.add(span{id: pr.id, kind: spDurable, parent: spCommit, start: t, end: t})
		}
	}
}

// awaitDurable blocks until everything the store has been handed is synced
// and the poller has seen the watermark pass it.
func (e *evidence) awaitDurable(o *outcome, p *phase, st *store.AuditStore) {
	if err := st.Sync(); err != nil {
		o.fail(1, "%s: store sync: %v", p.name, err)
	}
	waitUntil(5*time.Second, func() bool { return e.backlog() == 0 })
}

// backlog reports how many committed flow records still await durability.
func (e *evidence) backlog() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

func (e *evidence) close() {
	if e.stop != nil {
		close(e.stop)
		<-e.done
		e.stop = nil
	}
}
