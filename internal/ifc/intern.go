package ifc

import (
	"strings"
	"sync"
)

// Label interning (hash-consing). Every distinct tag set is represented by
// exactly one shared, immutable labelRec, so that
//
//   - equality is a pointer (or key) comparison,
//   - the canonical string form is rendered once, ever, per distinct label
//     (audit hashing and error messages reuse it for free), and
//   - flow-check caches can key on compact uint64 label keys instead of
//     rescanning tag sets.
//
// Tags are likewise interned into dense uint32 IDs; a label carries the IDs
// of its tags aligned with its sorted tag slice, letting the set operations
// (Subset, Union, Intersect, Diff) detect per-position equality with an
// integer compare and fall back to a string compare only to decide order at
// genuine mismatches.
//
// The tables grow with the number of distinct tags and labels ever seen in
// the process. Tags name security concerns, which are few and long-lived in
// the paper's model, so the tables are effectively bounded in practice; the
// per-decision flow caches built on top of them are strictly bounded.

// labelRec is the shared representation of one distinct label. Immutable
// after construction.
type labelRec struct {
	tags []Tag    // sorted ascending, deduplicated
	ids  []uint32 // ids[i] is the intern ID of tags[i]
	key  uint64   // unique per distinct label; 0 is reserved for the empty label
	str  string   // canonical form "{a,b,c}", also the intern-table key
	// canon reports that ParseLabel(str) rebuilds exactly this label: every
	// tag validates and has no leading or trailing Unicode space (which
	// ParseLabel trims). Labels built unchecked (OwnerPrivileges, With,
	// Without) may fail it; only canon labels answer canonical lookups.
	canon bool
}

var interned = struct {
	mu     sync.RWMutex
	tagIDs map[Tag]uint32
	labels map[string]*labelRec
	// nextTag/nextLabel are the next IDs to assign; 0 values are reserved.
	nextTag   uint32
	nextLabel uint64
}{
	tagIDs: make(map[Tag]uint32),
	labels: make(map[string]*labelRec),
}

// canonicalString renders the canonical "{a,b,c}" form of a sorted tag set.
func canonicalString(tags []Tag) string {
	var b strings.Builder
	n := 1 + len(tags)
	for _, t := range tags {
		n += len(t)
	}
	b.Grow(n)
	b.WriteByte('{')
	for i, t := range tags {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(t))
	}
	b.WriteByte('}')
	return b.String()
}

// internLabel returns the shared record for the given sorted, deduplicated
// tag set, creating it on first sight. ids, when non-nil, must be aligned
// with tags (callers that merged two interned labels already know them);
// nil means "look them up". The caller must not retain or mutate tags after
// the call: on first sight the slice is adopted into the shared record.
func internLabel(tags []Tag, ids []uint32) *labelRec {
	if len(tags) == 0 {
		return nil
	}
	str := canonicalString(tags)
	interned.mu.RLock()
	rec := interned.labels[str]
	interned.mu.RUnlock()
	if rec != nil {
		return rec
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if rec := interned.labels[str]; rec != nil {
		return rec
	}
	if ids == nil {
		ids = make([]uint32, len(tags))
		for i, t := range tags {
			ids[i] = internTagLocked(t)
		}
	}
	interned.nextLabel++
	rec = &labelRec{tags: tags, ids: ids, key: interned.nextLabel, str: str, canon: parsesBack(tags)}
	interned.labels[str] = rec
	return rec
}

// parsesBack reports whether ParseLabel rebuilds the tag set from its
// canonical string: every tag valid (a valid tag holds no space for
// ParseLabel to trim).
func parsesBack(tags []Tag) bool {
	for _, t := range tags {
		if !t.Valid() {
			return false
		}
	}
	return true
}

// lookupCanonical returns the interned label whose canonical string is
// exactly s, when ParseLabel(s) would rebuild that label: one read lock
// and one map read, no parsing, no allocation.
func lookupCanonical(s string) (Label, bool) {
	interned.mu.RLock()
	rec := interned.labels[s]
	interned.mu.RUnlock()
	if rec == nil || !rec.canon {
		return Label{}, false
	}
	return Label{rec: rec}, true
}

// CanonicalLabel is the allocation-free []byte form of ParseLabel's fast
// path, for decoders and verifiers reading labels straight out of a wire
// buffer. It reports the label whose canonical String form is exactly b —
// "∅" for the empty label, otherwise an interned label whose tags are all
// valid — and false for anything else, including labels this process has
// never interned and non-canonical spellings ParseLabel would accept. A
// true answer equals ParseLabel(string(b)) and its String() equals b.
func CanonicalLabel(b []byte) (Label, bool) {
	if string(b) == "∅" {
		return Label{}, true
	}
	interned.mu.RLock()
	rec := canonicalRecLocked(b)
	interned.mu.RUnlock()
	if rec == nil {
		return Label{}, false
	}
	return Label{rec: rec}, true
}

// AllCanonical reports whether CanonicalLabel answers for every label in
// bs, taking the intern table's read lock once: a verifier checking a
// record's eight context labels pays one lock, not eight.
func AllCanonical(bs [][]byte) bool {
	interned.mu.RLock()
	defer interned.mu.RUnlock()
	for _, b := range bs {
		if string(b) != "∅" && canonicalRecLocked(b) == nil {
			return false
		}
	}
	return true
}

// canonicalRecLocked returns the interned label whose canonical string is
// exactly b when ParseLabel would rebuild it, or nil. Callers hold
// interned.mu for reading.
func canonicalRecLocked(b []byte) *labelRec {
	if rec := interned.labels[string(b)]; rec != nil && rec.canon {
		return rec
	}
	return nil
}

// internTagLocked assigns (or returns) the intern ID of a tag. Callers must
// hold interned.mu for writing.
func internTagLocked(t Tag) uint32 {
	if id, ok := interned.tagIDs[t]; ok {
		return id
	}
	interned.nextTag++
	interned.tagIDs[t] = interned.nextTag
	return interned.nextTag
}
