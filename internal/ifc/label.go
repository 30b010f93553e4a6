package ifc

import (
	"fmt"
	"sort"
	"strings"
)

// A Label is an immutable set of tags. The zero value is the empty label,
// which is valid and means "unconstrained" for secrecy and "no integrity
// guarantees" for integrity.
//
// Labels are hash-consed: every distinct tag set is backed by one shared,
// interned record holding the sorted, deduplicated tag slice, the interned
// tag IDs and the canonical string form (see intern.go). This keeps subset
// checks linear with mostly-integer comparisons, makes equality a single
// key comparison, and renders the canonical String form exactly once per
// distinct label — which matters because labels are compared on every data
// flow and appear in audit records and on the wire.
type Label struct {
	rec *labelRec // nil means the empty label; never mutated
}

// EmptyLabel is the label with no tags.
var EmptyLabel = Label{}

// NewLabel builds a label from the given tags, sorting and deduplicating.
// Invalid tags cause an error; the paper's model never manipulates
// malformed tags, so construction is the single validation point.
func NewLabel(tags ...Tag) (Label, error) {
	for _, t := range tags {
		if err := t.Validate(); err != nil {
			return Label{}, err
		}
	}
	return newLabelUnchecked(tags), nil
}

// MustLabel is like NewLabel but panics on invalid tags. It is intended for
// literals in tests and examples where the tags are compile-time constants.
func MustLabel(tags ...Tag) Label {
	l, err := NewLabel(tags...)
	if err != nil {
		panic(err)
	}
	return l
}

// ParseLabel parses the canonical form produced by String, e.g.
// "{ann,medical}". The empty set may be written "{}" or "∅". Tags are
// validated, sorted and deduplicated, so "{ medical, ann }" parses too.
//
// The canonical string of a label this process has already interned is
// answered by lookup (see CanonicalLabel): one read lock and one map read,
// no splitting, validation or allocation. The lookup answers only for
// labels whose every tag is valid and already trimmed, so a label built
// unchecked (OwnerPrivileges("bad tag")) is still refused, and every
// other input takes the full parse.
func ParseLabel(s string) (Label, error) {
	if l, ok := lookupCanonical(s); ok {
		return l, nil
	}
	s = strings.TrimSpace(s)
	if s == "∅" || s == "{}" {
		return Label{}, nil
	}
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return Label{}, fmt.Errorf("ifc: label %q is not of the form {tag,...}", truncate(s, 64))
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	tags := make([]Tag, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		tags = append(tags, Tag(p))
	}
	return NewLabel(tags...)
}

// ParseLabelBytes is ParseLabel for a label read straight out of a wire
// buffer: a canonical interned label resolves without allocating
// (CanonicalLabel), anything else is parsed from a copy.
func ParseLabelBytes(b []byte) (Label, error) {
	if l, ok := CanonicalLabel(b); ok {
		return l, nil
	}
	return ParseLabel(string(b))
}

// newLabelUnchecked sorts and deduplicates without validating tags.
func newLabelUnchecked(tags []Tag) Label {
	if len(tags) == 0 {
		return Label{}
	}
	owned := make([]Tag, len(tags))
	copy(owned, tags)
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	out := owned[:1]
	for _, t := range owned[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return Label{rec: internLabel(out, nil)}
}

// makeLabel wraps a sorted, deduplicated tag set (with aligned intern IDs
// when the caller knows them) in a Label. The caller must not retain tags.
func makeLabel(tags []Tag, ids []uint32) Label {
	return Label{rec: internLabel(tags, ids)}
}

// list returns the shared sorted tag slice. Callers must not mutate it.
func (l Label) list() []Tag {
	if l.rec == nil {
		return nil
	}
	return l.rec.tags
}

// key returns the label's unique intern key (0 for the empty label).
func (l Label) key() uint64 {
	if l.rec == nil {
		return 0
	}
	return l.rec.key
}

// Len returns the number of tags in the label.
func (l Label) Len() int {
	if l.rec == nil {
		return 0
	}
	return len(l.rec.tags)
}

// IsEmpty reports whether the label has no tags.
func (l Label) IsEmpty() bool { return l.rec == nil || len(l.rec.tags) == 0 }

// Has reports whether the label contains the tag.
func (l Label) Has(t Tag) bool {
	tags := l.list()
	i := sort.Search(len(tags), func(i int) bool { return tags[i] >= t })
	return i < len(tags) && tags[i] == t
}

// Tags returns a copy of the tag set in sorted order.
func (l Label) Tags() []Tag {
	tags := l.list()
	if len(tags) == 0 {
		return nil
	}
	out := make([]Tag, len(tags))
	copy(out, tags)
	return out
}

// Subset reports whether every tag of l is also in other. Both tag sets are
// sorted, so this is a single merge walk; interned tag IDs make the common
// "same tag on both sides" step an integer comparison.
func (l Label) Subset(other Label) bool {
	if l.rec == nil {
		return true
	}
	if other.rec == nil {
		return false
	}
	if l.rec == other.rec {
		return true
	}
	a, b := l.rec, other.rec
	n, m := len(a.tags), len(b.tags)
	if n > m {
		return false
	}
	j := 0
	for i := 0; i < n; i++ {
		for {
			if j == m {
				return false
			}
			if a.ids[i] == b.ids[j] {
				break
			}
			if b.tags[j] < a.tags[i] {
				j++
				continue
			}
			return false
		}
		j++
	}
	return true
}

// Equal reports whether both labels contain exactly the same tags. Interning
// makes this a pointer comparison.
func (l Label) Equal(other Label) bool {
	return l.rec == other.rec
}

// Union returns the label containing every tag of l and other.
func (l Label) Union(other Label) Label {
	if l.IsEmpty() || l.rec == other.rec {
		return other
	}
	if other.IsEmpty() {
		return l
	}
	a, b := l.rec, other.rec
	tags := make([]Tag, 0, len(a.tags)+len(b.tags))
	ids := make([]uint32, 0, len(a.tags)+len(b.tags))
	i, j := 0, 0
	for i < len(a.tags) && j < len(b.tags) {
		switch {
		case a.ids[i] == b.ids[j]:
			tags = append(tags, a.tags[i])
			ids = append(ids, a.ids[i])
			i++
			j++
		case a.tags[i] < b.tags[j]:
			tags = append(tags, a.tags[i])
			ids = append(ids, a.ids[i])
			i++
		default:
			tags = append(tags, b.tags[j])
			ids = append(ids, b.ids[j])
			j++
		}
	}
	tags = append(tags, a.tags[i:]...)
	ids = append(ids, a.ids[i:]...)
	tags = append(tags, b.tags[j:]...)
	ids = append(ids, b.ids[j:]...)
	return makeLabel(tags, ids)
}

// Intersect returns the label containing the tags present in both l and other.
func (l Label) Intersect(other Label) Label {
	if l.rec == other.rec {
		return l
	}
	if l.rec == nil || other.rec == nil {
		return Label{}
	}
	a, b := l.rec, other.rec
	var tags []Tag
	var ids []uint32
	i, j := 0, 0
	for i < len(a.tags) && j < len(b.tags) {
		switch {
		case a.ids[i] == b.ids[j]:
			tags = append(tags, a.tags[i])
			ids = append(ids, a.ids[i])
			i++
			j++
		case a.tags[i] < b.tags[j]:
			i++
		default:
			j++
		}
	}
	if tags == nil {
		return Label{}
	}
	return makeLabel(tags, ids)
}

// Diff returns the tags in l that are not in other.
func (l Label) Diff(other Label) Label {
	if l.rec == nil || l.rec == other.rec {
		return Label{}
	}
	if other.rec == nil {
		return l
	}
	a, b := l.rec, other.rec
	var tags []Tag
	var ids []uint32
	j := 0
	for i := range a.tags {
		for j < len(b.tags) && b.tags[j] < a.tags[i] {
			j++
		}
		if j < len(b.tags) && a.ids[i] == b.ids[j] {
			continue
		}
		tags = append(tags, a.tags[i])
		ids = append(ids, a.ids[i])
	}
	if tags == nil {
		return Label{}
	}
	if len(tags) == len(a.tags) {
		return l
	}
	return makeLabel(tags, ids)
}

// With returns a copy of the label with the tags added.
func (l Label) With(tags ...Tag) Label {
	if len(tags) == 0 {
		return l
	}
	return l.Union(newLabelUnchecked(tags))
}

// Without returns a copy of the label with the tags removed.
func (l Label) Without(tags ...Tag) Label {
	if len(tags) == 0 {
		return l
	}
	return l.Diff(newLabelUnchecked(tags))
}

// String renders the canonical form, e.g. "{ann,medical}", or "∅" for the
// empty label, matching the notation used in the paper's figures. The form
// is rendered once per distinct label and shared thereafter.
func (l Label) String() string {
	if l.rec == nil {
		return "∅"
	}
	return l.rec.str
}

// MarshalText implements encoding.TextMarshaler using the canonical form.
func (l Label) MarshalText() ([]byte, error) {
	return []byte(l.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting the
// canonical form produced by MarshalText.
func (l *Label) UnmarshalText(text []byte) error {
	parsed, err := ParseLabel(string(text))
	if err != nil {
		return err
	}
	*l = parsed
	return nil
}
