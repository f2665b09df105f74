package partition

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/netgen"
)

// benchGraph is the smoke matrix's p2p-Gnutella instance at quarter
// scale: the same workload the engine partitions per job.
func benchGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	spec, err := netgen.ByName("p2p-Gnutella")
	if err != nil {
		tb.Fatal(err)
	}
	return spec.Generate(0.25, 1)
}

// TestPermIntoMatchesRand pins permInto to rand.Perm: the allocation-free
// order buffer must draw identically from the generator, or every
// randomized tie-break downstream would drift.
func TestPermIntoMatchesRand(t *testing.T) {
	var buf []int
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		a := rand.New(rand.NewSource(int64(n) + 3))
		b := rand.New(rand.NewSource(int64(n) + 3))
		want := a.Perm(n)
		buf = permInto(b, buf, n)
		if len(buf) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: perm[%d] = %d, want %d", n, i, buf[i], want[i])
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: generators diverged after the permutation", n)
		}
	}
}

// boxedHeap is the old container/heap-based gain heap, kept in the test
// as the reference implementation the non-boxing port must match pop
// for pop (ties included — FM move order depends on it).
type boxedHeap []heapEntry

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func TestGainHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var a gainHeap
		b := &boxedHeap{}
		// Mixed push/pop workload with many duplicate gains to exercise
		// tie-breaking by heap structure.
		for op := 0; op < 300; op++ {
			if rng.Intn(3) > 0 || len(a) == 0 {
				e := heapEntry{int32(rng.Intn(50)), int64(rng.Intn(8))}
				a.push(e)
				heap.Push(b, e)
			} else {
				got := a.pop()
				want := heap.Pop(b).(heapEntry)
				if got != want {
					t.Fatalf("trial %d op %d: pop %+v, want %+v", trial, op, got, want)
				}
			}
		}
		// Init path: identical contents, then drain both.
		entries := make([]heapEntry, 40)
		for i := range entries {
			entries[i] = heapEntry{int32(i), int64(rng.Intn(5))}
		}
		a = append(a[:0], entries...)
		*b = append((*b)[:0], entries...)
		a.init()
		heap.Init(b)
		for len(a) > 0 {
			got := a.pop()
			want := heap.Pop(b).(heapEntry)
			if got != want {
				t.Fatalf("trial %d drain: pop %+v, want %+v", trial, got, want)
			}
		}
	}
}

// TestScratchReuseDeterminism is the arena's core guarantee: partitions
// computed on a cold scratch, a reused warm scratch and the pooled
// (nil-scratch) path must be byte-identical — scratch reuse can never
// leak state into a result.
func TestScratchReuseDeterminism(t *testing.T) {
	g := benchGraph(t)
	base, err := Partition(g, Config{K: 16, Epsilon: 0.03, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for round := 0; round < 3; round++ {
		res, err := Partition(g, Config{K: 16, Epsilon: 0.03, Seed: 7, Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut != base.Cut || res.MaxBlock != base.MaxBlock {
			t.Fatalf("round %d: cut/maxblock %d/%d, want %d/%d", round, res.Cut, res.MaxBlock, base.Cut, base.MaxBlock)
		}
		for v := range base.Part {
			if res.Part[v] != base.Part[v] {
				t.Fatalf("round %d: part[%d] = %d, want %d", round, v, res.Part[v], base.Part[v])
			}
		}
	}
	// Different K on the same scratch, then back: still identical.
	if _, err := Partition(g, Config{K: 64, Epsilon: 0.03, Seed: 3, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Config{K: 16, Epsilon: 0.03, Seed: 7, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Part {
		if res.Part[v] != base.Part[v] {
			t.Fatalf("after K switch: part[%d] = %d, want %d", v, res.Part[v], base.Part[v])
		}
	}
}

// TestProportionalScratchDeterminism pins the scratch-backed
// PartitionProportional (DRB's bisection primitive) to the allocating
// path.
func TestProportionalScratchDeterminism(t *testing.T) {
	g := benchGraph(t)
	want, err := PartitionProportional(g, Config{K: 2}, 0.375, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for round := 0; round < 2; round++ {
		got, err := PartitionProportional(g, Config{K: 2, Scratch: sc}, 0.375, 5)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d: side[%d] = %d, want %d", round, v, got[v], want[v])
			}
		}
	}
}

// TestPartitionWarmAllocs pins the warm hot path's allocation count:
// only the returned Part slice, the Result and the rounding noise of
// the harness itself — the multilevel machinery must not touch the
// heap once the scratch is warm.
func TestPartitionWarmAllocs(t *testing.T) {
	g := benchGraph(t)
	sc := NewScratch()
	cfg := Config{K: 64, Epsilon: 0.03, Seed: 1, Scratch: sc}
	// Warm the arena to its high-water mark.
	for i := 0; i < 2; i++ {
		if _, err := Partition(g, cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Partition(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// part + Result (+ an occasional runtime-internal allocation); the
	// pre-arena implementation performed ~100k allocations per call.
	if allocs > 8 {
		t.Errorf("warm Partition allocates %.0f times per call, want ≤ 8", allocs)
	}
}

func BenchmarkPartitionCold(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, Config{K: 64, Epsilon: 0.03, Seed: 1, Scratch: NewScratch()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionWarm runs the warm hot path at the smoke matrix's
// K=64 and at K=1024, where a bisection's subgraphs are a few vertices
// each: per-node seeding and rebalance weigh most there.
func BenchmarkPartitionWarm(b *testing.B) {
	g := benchGraph(b)
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sc := NewScratch()
			cfg := Config{K: k, Epsilon: 0.03, Seed: 1, Scratch: sc}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Partition(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
