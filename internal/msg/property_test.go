package msg

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lciot/internal/ifc"
)

// genTagLabel draws from a small tag universe so subset relations occur.
func genTagLabel(r *rand.Rand) ifc.Label {
	universe := []ifc.Tag{"A", "B", "C", "D"}
	var tags []ifc.Tag
	for _, t := range universe {
		if r.Intn(2) == 0 {
			tags = append(tags, t)
		}
	}
	l, _ := ifc.NewLabel(tags...)
	return l
}

// TestPropertyQuenchExact: quenching removes exactly the present
// attributes whose secrecy is not covered by the clearance, in sorted
// order; it returns the message itself when it removes nothing (also when
// an uncovered field is merely absent) and a new message otherwise; it
// never changes the input's encoding; and the survivors are identical.
func TestPropertyQuenchExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nFields := r.Intn(6) + 1
		fields := make([]Field, 0, nFields)
		m := New("t")
		m.DataID = "datum"
		for i := 0; i < nFields; i++ {
			name := string(rune('a' + i))
			typ := TInt
			if i%2 == 1 {
				typ = TBytes
			}
			fields = append(fields, Field{
				Name:    name,
				Type:    typ,
				Secrecy: genTagLabel(r),
			})
			if r.Intn(4) == 0 {
				continue // absent from this message
			}
			if typ == TBytes {
				m.Set(name, Bytes([]byte{byte(i), 'x'}))
			} else {
				m.Set(name, Int(int64(i)))
			}
		}
		schema, err := NewSchema("t", ifc.EmptyLabel, fields...)
		if err != nil {
			return false
		}
		clearance := genTagLabel(r)

		before, err := EncodeBinary(m)
		if err != nil {
			return false
		}
		out, quenched := schema.Quench(m, clearance)

		// Input unchanged, byte for byte.
		after, err := EncodeBinary(m)
		if err != nil || !bytes.Equal(before, after) {
			return false
		}
		if !sort.StringsAreSorted(quenched) {
			return false
		}
		// Identity exactly when nothing was removed.
		if (out == m) != (len(quenched) == 0) || (len(quenched) == 0 && quenched != nil) {
			return false
		}
		quenchedSet := map[string]bool{}
		for _, q := range quenched {
			quenchedSet[q] = true
		}
		for _, fld := range fields {
			covered := fld.Secrecy.Subset(clearance)
			mv, inInput := m.Get(fld.Name)
			ov, present := out.Get(fld.Name)
			if present != (inInput && covered) {
				return false // survivor set wrong
			}
			if quenchedSet[fld.Name] != (inInput && !covered) {
				return false // quench list inconsistent with coverage
			}
			if present && !ov.Equal(mv) {
				return false
			}
		}
		return out.Type == m.Type && out.DataID == m.DataID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error("quench not exact:", err)
	}
}

// TestPropertyQuenchMonotone: a larger clearance never loses attributes a
// smaller clearance kept.
func TestPropertyQuenchMonotone(t *testing.T) {
	schema := MustSchema("t", ifc.EmptyLabel,
		Field{Name: "a", Type: TInt, Secrecy: ifc.MustLabel("A")},
		Field{Name: "b", Type: TInt, Secrecy: ifc.MustLabel("A", "B")},
		Field{Name: "c", Type: TInt},
	)
	m := New("t").Set("a", Int(1)).Set("b", Int(2)).Set("c", Int(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		small := genTagLabel(r)
		big := small.Union(genTagLabel(r))
		outSmall, _ := schema.Quench(m, small)
		outBig, _ := schema.Quench(m, big)
		for name := range outSmall.Attrs {
			if _, ok := outBig.Get(name); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("quench not monotone:", err)
	}
}
