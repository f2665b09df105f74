package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/partition"
)

func testPartitionGraph(seed int64) *graph.Graph {
	spec, err := netgen.ByName("p2p-Gnutella")
	if err != nil {
		panic(err)
	}
	return spec.Generate(0.05, seed)
}

// TestArtifactSingleFlightExactlyOnce hammers one key from many
// goroutines and asserts the builder ran exactly once while every
// caller got the same value — the single-flight contract under -race.
func TestArtifactSingleFlightExactlyOnce(t *testing.T) {
	c := NewArtifactCache(0, 0)
	g := testPartitionGraph(1)
	var builds atomic.Int64

	const workers = 32
	results := make([]*partition.Result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.Partition("part:one", func() (*partition.Result, error) {
				builds.Add(1)
				return partition.Partition(g, partition.Config{K: 8, Epsilon: 0.03, Seed: 7})
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}(i)
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want exactly 1", n)
	}
	for i, p := range results {
		if p != results[0] {
			t.Fatalf("caller %d got a different value pointer", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.InflightWaits != workers-1 {
		t.Errorf("hits+inflight = %d+%d, want %d", st.Hits, st.InflightWaits, workers-1)
	}
}

// TestArtifactConcurrentNearIdenticalKeys interleaves identical and
// near-identical keys (same graph, seeds differing by one) from many
// goroutines: each distinct key must build exactly once, and values
// must never cross keys.
func TestArtifactConcurrentNearIdenticalKeys(t *testing.T) {
	c := NewArtifactCache(0, 0)
	g := testPartitionGraph(1)
	const keys = 4
	var builds [keys]atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				k := (w + r) % keys
				seed := int64(100 + k)
				p, _, err := c.Partition(fmt.Sprintf("part:fp|k=8|eps=0.03|seed=%d", seed),
					func() (*partition.Result, error) {
						builds[k].Add(1)
						return partition.Partition(g, partition.Config{K: 8, Epsilon: 0.03, Seed: seed})
					})
				if err != nil {
					t.Error(err)
					return
				}
				// Spot-check the value matches its key: recomputing with the
				// key's seed must agree (Partition is deterministic).
				want, _ := partition.Partition(g, partition.Config{K: 8, Epsilon: 0.03, Seed: seed})
				if p.Cut != want.Cut || p.MaxBlock != want.MaxBlock {
					t.Errorf("key seed=%d served cut=%d maxblock=%d, want %d/%d",
						seed, p.Cut, p.MaxBlock, want.Cut, want.MaxBlock)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
	}
}

// TestArtifactEvictionPreservesHeldValues forces eviction under a tiny
// byte bound while readers still hold evicted partitions, and asserts
// the held values' backing arrays are never reused: the snapshot taken
// at fetch time must still match after the value has been evicted and
// its key rebuilt.
func TestArtifactEvictionPreservesHeldValues(t *testing.T) {
	g := testPartitionGraph(1)
	// Each partition costs ~4·N bytes; cap the cache below two of them
	// so every insert evicts the previous entry.
	c := NewArtifactCache(0, int64(g.N())*4+65)

	type held struct {
		p    *partition.Result
		snap []int32
	}
	var hs []held
	for seed := int64(1); seed <= 6; seed++ {
		key := fmt.Sprintf("part:g|seed=%d", seed)
		p, _, err := c.Partition(key, func() (*partition.Result, error) {
			return partition.Partition(g, partition.Config{K: 4, Epsilon: 0.03, Seed: seed})
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, held{p: p, snap: append([]int32(nil), p.Part...)})
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a byte cap smaller than two partitions")
	}
	if st.Bytes > c.maxBytes {
		t.Errorf("resident bytes %d exceed cap %d", st.Bytes, c.maxBytes)
	}
	// Rebuild an early (evicted) key: a fresh value must appear, and
	// every held snapshot must be intact.
	p2, reused, err := c.Partition("part:g|seed=1", func() (*partition.Result, error) {
		return partition.Partition(g, partition.Config{K: 4, Epsilon: 0.03, Seed: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("evicted key reported as reused")
	}
	if p2 == hs[0].p {
		t.Error("rebuild after eviction returned the evicted pointer")
	}
	for i, h := range hs {
		for v := range h.snap {
			if h.p.Part[v] != h.snap[v] {
				t.Fatalf("held partition %d mutated at vertex %d after eviction", i, v)
			}
		}
	}
}

func TestArtifactFailedBuildsAreCached(t *testing.T) {
	c := NewArtifactCache(0, 0)
	boom := errors.New("boom")
	var builds atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := c.Graph("graph:bad", func() (*graph.Graph, error) {
			builds.Add(1)
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("failed build ran %d times, want 1", n)
	}
	// Error-serving lookups must not read as cache effectiveness.
	st := c.Stats()
	if st.Hits != 0 || st.ErrorHits != 2 || st.Misses != 1 {
		t.Errorf("stats after cached failures = %+v, want 0 hits / 2 error hits / 1 miss", st)
	}
}

func TestArtifactEntryCapLRU(t *testing.T) {
	c := NewArtifactCache(2, 0)
	build := func(n int64) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			b := graph.NewBuilder(2)
			b.AddEdge(0, 1, n)
			return b.Build(), nil
		}
	}
	c.Graph("a", build(1))
	c.Graph("b", build(2))
	c.Graph("a", build(1)) // refresh a's recency
	c.Graph("c", build(3)) // evicts b, the LRU entry
	var missed atomic.Bool
	c.Graph("a", func() (*graph.Graph, error) { missed.Store(true); return nil, errors.New("rebuilt") })
	if missed.Load() {
		t.Error("recently-used entry a was evicted")
	}
	c.Graph("b", func() (*graph.Graph, error) { missed.Store(true); return build(2)() })
	if !missed.Load() {
		t.Error("LRU entry b survived past the entry cap")
	}
}

// TestArtifactOneShotPartitionCap pins the one-shot rule: a partition
// requested once is one of at most max(1, maxEntries/8) such entries,
// evicted oldest first, while graphs and partitions requested twice
// keep the full LRU bound. Builds in flight hold no place under the
// cap, and a request for an evicted one-shot partition is its key's
// second, so the rebuilt entry stays as reused.
func TestArtifactOneShotPartitionCap(t *testing.T) {
	part := func() (*partition.Result, error) { return &partition.Result{Part: []int32{0}}, nil }
	fresh := func(c *ArtifactCache, n int) {
		for i := 0; i < n; i++ {
			c.Partition(fmt.Sprintf("part:fresh|seed=%d", i), part)
		}
	}
	reused := func(t *testing.T, c *ArtifactCache, key string) bool {
		t.Helper()
		_, r, err := c.Partition(key, part)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("default cap keeps 128 one-shot partitions", func(t *testing.T) {
		c := NewArtifactCache(0, 0)
		c.Partition("part:shared", part)
		if !reused(t, c, "part:shared") {
			t.Fatal("second request for a resident partition was not reused")
		}
		c.Graph("graph:once", func() (*graph.Graph, error) { return graph.NewBuilder(2).Build(), nil })
		fresh(c, 1100)
		resident := 0
		for key := range c.entries {
			if strings.HasPrefix(key, "part:fresh|") {
				resident++
			}
		}
		if resident != 128 {
			t.Errorf("%d one-shot partitions resident after 1100 builds, want 128", resident)
		}
		if !reused(t, c, "part:shared") {
			t.Error("a reused partition was evicted by one-shot builds")
		}
		if _, err := c.Graph("graph:once", func() (*graph.Graph, error) {
			return nil, errors.New("rebuilt")
		}); err != nil {
			t.Error("a graph entry was evicted by one-shot builds")
		}
	})
	for _, others := range []int{127, 128} {
		t.Run(fmt.Sprintf("after %d other one-shot builds", others), func(t *testing.T) {
			c := NewArtifactCache(0, 0)
			c.Partition("part:p", part)
			fresh(c, others)
			if got, want := reused(t, c, "part:p"), others < 128; got != want {
				t.Errorf("reused = %v, want %v", got, want)
			}
		})
	}
	for _, maxEntries := range []int{1, 2} {
		t.Run(fmt.Sprintf("NewArtifactCache(%d, 0)", maxEntries), func(t *testing.T) {
			c := NewArtifactCache(maxEntries, 0)
			c.Partition("part:p", part)
			if !reused(t, c, "part:p") {
				t.Error("a partition requested twice in a row was not reused")
			}
		})
	}
	t.Run("builds in flight hold no place under the cap", func(t *testing.T) {
		c := NewArtifactCache(8, 0) // a one-shot cap of 1
		started, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Partition("part:slow", func() (*partition.Result, error) {
				close(started)
				<-release
				return part()
			})
		}()
		<-started
		c.Partition("part:p", part)
		if !reused(t, c, "part:p") {
			t.Error("a finished one-shot partition was evicted for a build still in flight")
		}
		close(release)
		wg.Wait()
	})
	t.Run("a second pass over 200 one-shot partitions", func(t *testing.T) {
		c := NewArtifactCache(0, 0)
		fresh(c, 200)
		// The second pass rebuilds the 72 evicted ones as reused, so
		// they evict none of the 128 still resident; the third finds
		// all 200.
		for pass, want := range []int{128, 200} {
			n := 0
			for i := 0; i < 200; i++ {
				if reused(t, c, fmt.Sprintf("part:fresh|seed=%d", i)) {
					n++
				}
			}
			if n != want {
				t.Errorf("request %d of each key: %d reused, want %d", pass+2, n, want)
			}
		}
	})
}

// BenchmarkArtifactCacheHit measures the steady-state lookup cost of a
// resident artifact — the per-job overhead a shared-partition batch
// pays instead of a full multilevel partition.
func BenchmarkArtifactCacheHit(b *testing.B) {
	c := NewArtifactCache(0, 0)
	g := testPartitionGraph(1)
	key := "part:bench"
	c.Partition(key, func() (*partition.Result, error) {
		return partition.Partition(g, partition.Config{K: 8, Epsilon: 0.03, Seed: 1})
	})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, reused, err := c.Partition(key, nil); err != nil || !reused {
			b.Fatalf("reused=%v err=%v", reused, err)
		}
	}
}

// BenchmarkArtifactCacheMissPartition is the cold path: a full
// multilevel partition through the cache, the cost the hit path avoids.
func BenchmarkArtifactCacheMissPartition(b *testing.B) {
	c := NewArtifactCache(0, 0)
	g := testPartitionGraph(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("part:bench|%d", i)
		if _, _, err := c.Partition(key, func() (*partition.Result, error) {
			return partition.Partition(g, partition.Config{K: 8, Epsilon: 0.03, Seed: int64(i)})
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArtifactCacheContended measures hit-path throughput under
// concurrent readers, the shape of a worker pool draining a shared
// batch.
func BenchmarkArtifactCacheContended(b *testing.B) {
	c := NewArtifactCache(0, 0)
	g := testPartitionGraph(1)
	key := "part:bench"
	c.Partition(key, func() (*partition.Result, error) {
		return partition.Partition(g, partition.Config{K: 8, Epsilon: 0.03, Seed: 1})
	})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, reused, err := c.Partition(key, nil); err != nil || !reused {
				b.Fatalf("reused=%v err=%v", reused, err)
			}
		}
	})
}

// TestArtifactBuildPanicDoesNotWedgeKey pins the panic contract: a
// panicking build must propagate to its own caller (runGuarded turns it
// into a job failure) while waiters and later requesters of the key get
// a cached error instead of blocking forever on a never-closed entry.
func TestArtifactBuildPanicDoesNotWedgeKey(t *testing.T) {
	c := NewArtifactCache(0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("building caller did not observe its own panic")
			}
		}()
		c.Graph("graph:panics", func() (*graph.Graph, error) { panic("kaboom") })
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Graph("graph:panics", func() (*graph.Graph, error) {
			return nil, errors.New("rebuilt — panic entry was not cached")
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("later requester got %v, want the cached panic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("later requester hung on the panicked entry")
	}
}

// TestConflictingGraphSpecDoesNotPoisonCanonicalKey submits a spec
// that sets both Network and Edges (a per-request validation error)
// and asserts the canonical network key still serves legitimate jobs.
func TestConflictingGraphSpecDoesNotPoisonCanonicalKey(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	bad := JobSpec{
		Graph:          GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11, Edges: [][3]int64{{0, 1, 1}}},
		Topology:       "grid:4x4",
		Seed:           11,
		NumHierarchies: 2,
	}
	if _, err := e.Run(bad); err == nil {
		t.Fatal("conflicting graph spec did not fail")
	}
	good := bad
	good.Graph.Edges = nil
	if _, err := e.Run(good); err != nil {
		t.Fatalf("legitimate job poisoned by earlier conflicting spec: %v", err)
	}
}

// TestInlineGraphsSkipFingerprintMemo: a graph a job builds from its
// own inline edges is hashed directly and never pinned by the pointer
// memo, yet its partition key stays content-addressed, so a second job
// on the same edges and seed reuses the partition. A caller-pinned G
// still goes through the memo.
func TestInlineGraphsSkipFingerprintMemo(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	memo := func() int {
		e.artifacts.fpMu.Lock()
		defer e.artifacts.fpMu.Unlock()
		return len(e.artifacts.fps)
	}
	spec := JobSpec{Graph: GraphSpec{N: 60, Edges: ringEdges(60)}, Topology: "grid:2x2",
		Case: C2Identity, Seed: 5, NumHierarchies: 2}
	if _, err := e.Run(spec); err != nil {
		t.Fatal(err)
	}
	spec.Case = C4GreedyMin
	res, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PartitionReused {
		t.Error("second inline job on the same edges and seed did not reuse the partition")
	}
	if n := memo(); n != 0 {
		t.Errorf("fingerprint memo holds %d inline-built graphs, want 0", n)
	}

	ga, err := spec.Graph.materialize(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(JobSpec{Graph: GraphSpec{G: ga}, Topology: "grid:2x2", Case: C2Identity,
		Seed: 5, NumHierarchies: 2}); err != nil {
		t.Fatal(err)
	}
	if n := memo(); n != 1 {
		t.Errorf("fingerprint memo holds %d graphs after a pinned-G job, want 1", n)
	}
}

// TestFingerprintMemo covers the pointer-keyed fingerprint memo: equal
// pointers are served from the memo, distinct graphs get distinct
// fingerprints, and the epoch clear keeps the map bounded.
func TestFingerprintMemo(t *testing.T) {
	c := NewArtifactCache(0, 0)
	g1 := testPartitionGraph(1)
	g2 := testPartitionGraph(2)
	if c.fingerprintOf(g1) != g1.Fingerprint() {
		t.Error("memoized fingerprint differs from direct computation")
	}
	if c.fingerprintOf(g1) != c.fingerprintOf(g1) {
		t.Error("repeated memo lookups disagree")
	}
	if c.fingerprintOf(g1) == c.fingerprintOf(g2) {
		t.Error("distinct graphs share a fingerprint")
	}
	for i := 0; i < maxFingerprintMemo+8; i++ {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1, int64(i)+1)
		c.fingerprintOf(b.Build())
	}
	c.fpMu.Lock()
	n := len(c.fps)
	c.fpMu.Unlock()
	if n > maxFingerprintMemo {
		t.Errorf("memo grew to %d entries past its cap %d", n, maxFingerprintMemo)
	}
}
