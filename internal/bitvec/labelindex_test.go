package bitvec

import (
	"math/rand"
	"testing"
)

// TestLabelIndexMatchesMap drives a LabelIndex and a Go map with the
// same randomized operation stream and demands identical answers.
func TestLabelIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := NewLabelIndex(8)
	ref := make(map[Label]int32)
	for op := 0; op < 20000; op++ {
		key := Label(rng.Uint64() & 0x3FF) // small key space forces collisions
		switch rng.Intn(3) {
		case 0:
			v := int32(rng.Intn(1 << 20))
			ix.Put(key, v)
			ref[key] = v
		case 1:
			v := int32(rng.Intn(1 << 20))
			got, existed := ix.PutIfAbsent(key, v)
			prev, ok := ref[key]
			if existed != ok {
				t.Fatalf("op %d: PutIfAbsent existed = %v, map has %v", op, existed, ok)
			}
			if existed && got != prev {
				t.Fatalf("op %d: PutIfAbsent returned %d, map has %d", op, got, prev)
			}
			if !existed {
				ref[key] = v
			}
		default:
			got, ok := ix.Get(key)
			want, refOk := ref[key]
			if ok != refOk || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", op, key, got, ok, want, refOk)
			}
		}
		if ix.n != len(ref) {
			t.Fatalf("op %d: n = %d, map has %d", op, ix.n, len(ref))
		}
	}
}

// TestLabelIndexZeroKeyAndValue pins the encoding trick: key 0 and
// value 0 are both legal (value 0 must not read as an empty slot).
func TestLabelIndexZeroKeyAndValue(t *testing.T) {
	ix := NewLabelIndex(4)
	if _, ok := ix.Get(0); ok {
		t.Fatal("empty index claims to hold key 0")
	}
	ix.Put(0, 0)
	if v, ok := ix.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = (%d,%v), want (0,true)", v, ok)
	}
}

// TestLabelIndexResetReuses checks that Reset clears entries without
// reallocating when the table is already big enough.
func TestLabelIndexResetReuses(t *testing.T) {
	ix := NewLabelIndex(100)
	for i := 0; i < 100; i++ {
		ix.Put(Label(i), int32(i))
	}
	allocs := testing.AllocsPerRun(10, func() {
		ix.Reset(100)
		for i := 0; i < 100; i++ {
			ix.Put(Label(i), int32(i))
		}
	})
	if allocs != 0 {
		t.Errorf("warm Reset+refill allocates %.1f times, want 0", allocs)
	}
	if v, ok := ix.Get(42); !ok || v != 42 {
		t.Fatalf("Get(42) = (%d,%v) after reuse", v, ok)
	}
}

// TestLabelIndexGrows exercises the safety-net rehash by under-sizing.
func TestLabelIndexGrows(t *testing.T) {
	ix := NewLabelIndex(1)
	for i := 0; i < 1000; i++ {
		ix.Put(Label(i*2654435761), int32(i))
	}
	for i := 0; i < 1000; i++ {
		if v, ok := ix.Get(Label(i * 2654435761)); !ok || v != int32(i) {
			t.Fatalf("entry %d lost across growth: (%d,%v)", i, v, ok)
		}
	}
}

// benchKeys mimics the hierarchy workload: dense structured labels.
func benchKeys(n int) []Label {
	keys := make([]Label, n)
	for i := range keys {
		keys[i] = Label(i)
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func BenchmarkLabelIndex(b *testing.B) {
	keys := benchKeys(4096)
	ix := NewLabelIndex(len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reset(len(keys))
		for v, k := range keys {
			ix.Put(k, int32(v))
		}
		var hits int
		for _, k := range keys {
			if _, ok := ix.Get(k ^ 1); ok {
				hits++
			}
		}
		_ = hits
	}
}

// BenchmarkGoMapLabelIndex is the map[Label]int32 workload the
// LabelIndex replaced, for a side-by-side -bench comparison.
func BenchmarkGoMapLabelIndex(b *testing.B) {
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[Label]int32, len(keys))
		for v, k := range keys {
			m[k] = int32(v)
		}
		var hits int
		for _, k := range keys {
			if _, ok := m[k^1]; ok {
				hits++
			}
		}
		_ = hits
	}
}
