package sbus

import (
	"fmt"
	"maps"
	"math/rand"
	"strconv"
	"testing"
)

// TestCowMapModel drives random get/set/delete/len/range sequences against
// a cowMap and a plain Go map side by side, publishing a version every few
// writes. Every published version must still read exactly as it did when
// published after all later writes: that immutability is what lets the
// bus's routing readers go without locks.
func TestCowMapModel(t *testing.T) {
	for _, keys := range []int{8, 300, 3000} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("keys=%d/seed=%d", keys, seed), func(t *testing.T) {
				testCowMapModel(t, keys, seed)
			})
		}
	}
}

func testCowMapModel(t *testing.T, keys int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	type version struct {
		m    cowMap[string, int]
		want map[string]int
	}
	var published []version
	cur := cowMap[string, int]{hash: hashString}
	model := map[string]int{}
	for step := 0; step < 4000; step++ {
		if r.Intn(40) == 0 {
			published = append(published, version{cur, maps.Clone(model)})
			cur = cur.clone()
		}
		k := "k" + strconv.Itoa(r.Intn(keys))
		switch r.Intn(6) {
		case 0, 1, 2:
			v := r.Int()
			cur.set(k, v)
			model[k] = v
		case 3:
			cur.delete(k)
			delete(model, k)
		case 4:
			got, ok := cur.get(k)
			want, wantOK := model[k]
			if got != want || ok != wantOK {
				t.Fatalf("step %d: get(%q) = %d, %v; want %d, %v", step, k, got, ok, want, wantOK)
			}
		case 5:
			checkCowMap(t, fmt.Sprintf("step %d", step), &cur, model)
		}
	}
	checkCowMap(t, "final", &cur, model)
	for i, v := range published {
		checkCowMap(t, fmt.Sprintf("published version %d", i), &v.m, v.want)
	}
}

// checkCowMap asserts that m holds exactly want, through len, each and get.
func checkCowMap(t *testing.T, where string, m *cowMap[string, int], want map[string]int) {
	t.Helper()
	if m.len() != len(want) {
		t.Fatalf("%s: len = %d, want %d", where, m.len(), len(want))
	}
	got := map[string]int{}
	m.each(func(k string, v int) {
		if _, dup := got[k]; dup {
			t.Fatalf("%s: range yields %q twice", where, k)
		}
		got[k] = v
	})
	if !maps.Equal(got, want) {
		t.Fatalf("%s: range = %v, want %v", where, got, want)
	}
	for k, v := range want {
		if g, ok := m.get(k); !ok || g != v {
			t.Fatalf("%s: get(%q) = %d, %v; want %d", where, k, g, ok, v)
		}
	}
}
