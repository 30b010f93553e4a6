package sbus

import (
	"hash/maphash"
	"maps"
)

// cowBuckets is the number of buckets a cowMap spreads its keys over. A
// write copies the bucket table (cowBuckets pointers, 2 KiB) and then
// about 1/cowBuckets of the entries, so the constant trades the fixed
// per-mutation copy against the share of the map each write copies.
const cowBuckets = 256

// cowSeed seeds every cowMap's bucket hash. Bucket choice only has to be
// stable within one process, so a random seed is fine.
var cowSeed = maphash.MakeSeed()

func hashString(s string) uint64 { return maphash.String(cowSeed, s) }

// A cowMap is a persistent map: a version, once published, never changes,
// so readers may use it without locks while a writer derives the next
// version from it. Keys are spread over cowBuckets ordinary Go maps. A new
// version (clone) shares the bucket table and every bucket with the version
// it came from; its first write copies the table, and its first write to
// each bucket copies that bucket, after which further writes to the bucket
// in the same version go in place. A version therefore costs the table plus
// the buckets it wrote, not a copy of the whole map.
//
// A cowMap is not safe for concurrent writes; a version is written by one
// goroutine until it is published.
type cowMap[K comparable, V any] struct {
	// t is nil until the first write.
	t *cowTable[K, V]
	// hash picks a key's bucket.
	hash func(K) uint64
	// owned reports that t is this version's private copy, whose fresh
	// bits name the buckets this version already copied. clone clears it.
	owned bool
}

// A cowTable is one version's bucket table. Empty buckets are nil.
type cowTable[K comparable, V any] struct {
	buckets [cowBuckets]map[K]V
	fresh   [cowBuckets / 64]uint64
}

// clone returns the next version of m, sharing everything with m until it
// is written. m must no longer be written once it has been cloned.
func (m *cowMap[K, V]) clone() cowMap[K, V] {
	next := *m
	next.owned = false
	return next
}

func (m *cowMap[K, V]) bucket(k K) int { return int(m.hash(k) % cowBuckets) }

func (m *cowMap[K, V]) get(k K) (V, bool) {
	if m.t == nil {
		var zero V
		return zero, false
	}
	v, ok := m.t.buckets[m.bucket(k)][k]
	return v, ok
}

// len counts the entries; it visits every bucket, so it is for listings
// and statistics, not the message path.
func (m *cowMap[K, V]) len() int {
	n := 0
	if m.t != nil {
		for _, b := range m.t.buckets {
			n += len(b)
		}
	}
	return n
}

// each calls fn for every entry, in no particular order.
func (m *cowMap[K, V]) each(fn func(K, V)) {
	if m.t == nil {
		return
	}
	for _, b := range m.t.buckets {
		for k, v := range b {
			fn(k, v)
		}
	}
}

func (m *cowMap[K, V]) set(k K, v V) { m.writable(k)[k] = v }

func (m *cowMap[K, V]) delete(k K) {
	if _, ok := m.get(k); ok {
		delete(m.writable(k), k)
	}
}

// writable returns the bucket k belongs in, private to this version: the
// caller may read it and write entries into it in place, which spares a
// read-modify-write (see routing.edit) a second hash.
func (m *cowMap[K, V]) writable(k K) map[K]V {
	i := m.bucket(k)
	if m.owned && m.t.fresh[i/64]&(1<<(i%64)) != 0 {
		return m.t.buckets[i]
	}
	return m.copyBucket(i)
}

// copyBucket copies the table on the version's first write and bucket i
// on its first write to i.
func (m *cowMap[K, V]) copyBucket(i int) map[K]V {
	if !m.owned {
		t := new(cowTable[K, V])
		if m.t != nil {
			t.buckets = m.t.buckets
		}
		m.t, m.owned = t, true
	}
	old := m.t.buckets[i]
	b := make(map[K]V, len(old)+1)
	maps.Copy(b, old)
	m.t.buckets[i] = b
	m.t.fresh[i/64] |= 1 << (i % 64)
	return b
}
