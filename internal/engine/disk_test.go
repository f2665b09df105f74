package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/partition"
)

// diskTestGraph builds a small deterministic graph for tier unit tests.
func diskTestGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, int64(i%5+1))
	}
	return b.Build()
}

// newTestTier attaches a fresh disk tier to dir or fails the test.
func newTestTier(t *testing.T, dir string, maxBytes int64) *diskTier {
	t.Helper()
	tier, err := newDiskTier(dir, maxBytes)
	if err != nil {
		t.Fatalf("newDiskTier: %v", err)
	}
	return tier
}

func TestDiskTierServesAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	key := "graph:net:ring@1#7"
	g := diskTestGraph(64)

	c1 := NewArtifactCache(0, 0)
	c1.disk = newTestTier(t, dir, 0)
	if _, err := c1.Graph(key, func() (*graph.Graph, error) { return g, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c1.disk.stats(); st.Writes != 1 || st.Files != 1 {
		t.Fatalf("write-through stats = %+v", st)
	}

	// A second cache — fresh memory, fresh tier index, same directory —
	// must serve the snapshot without running its build.
	c2 := NewArtifactCache(0, 0)
	c2.disk = newTestTier(t, dir, 0)
	got, err := c2.Graph(key, func() (*graph.Graph, error) {
		t.Fatal("build ran despite a disk snapshot")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != g.Fingerprint() {
		t.Fatal("disk-served graph differs from the original")
	}
	if st := c2.disk.stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("restart stats = %+v, want 1 hit", st)
	}

	// Partitions take the same path.
	pkey := "part:" + key + "|k=4|eps=0.03|seed=1"
	p := &partition.Result{Part: []int32{0, 1, 2, 3, 0, 1, 2, 3}, K: 4, Cut: 9, MaxBlock: 2, Balance: 1}
	if _, _, err := c1.Partition(pkey, func() (*partition.Result, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	gotP, reused, err := c2.Partition(pkey, func() (*partition.Result, error) {
		t.Fatal("partition build ran despite a disk snapshot")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("disk-served partition not reported as reused")
	}
	if !reflect.DeepEqual(gotP.Part, p.Part) || gotP.Cut != p.Cut {
		t.Fatal("disk-served partition differs from the original")
	}
}

func TestDiskTierServesAfterMemoryEviction(t *testing.T) {
	dir := t.TempDir()
	c := NewArtifactCache(1, 0) // one entry: the second build evicts the first
	c.disk = newTestTier(t, dir, 0)

	keyA, keyB := "graph:net:a@1#1", "graph:net:b@1#1"
	ga, gb := diskTestGraph(32), diskTestGraph(48)
	if _, err := c.Graph(keyA, func() (*graph.Graph, error) { return ga, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(keyB, func() (*graph.Graph, error) { return gb, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	got, err := c.Graph(keyA, func() (*graph.Graph, error) {
		t.Fatal("build ran for a disk-resident evicted artifact")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != ga.Fingerprint() {
		t.Fatal("disk tier served the wrong graph after eviction")
	}
}

func TestDiskTierRespillsOnEviction(t *testing.T) {
	dir := t.TempDir()
	c := NewArtifactCache(1, 0)
	c.disk = newTestTier(t, dir, 0)

	keyA := "graph:net:a@1#1"
	ga := diskTestGraph(32)
	if _, err := c.Graph(keyA, func() (*graph.Graph, error) { return ga, nil }); err != nil {
		t.Fatal(err)
	}
	// Drop A's snapshot (as a full disk LRU sweep would); A is still in
	// memory, so the next insertion's eviction must re-spill it.
	c.disk.remove(keyA)
	if st := c.disk.stats(); st.Files != 0 {
		t.Fatalf("remove left %d files", st.Files)
	}
	if _, err := c.Graph("graph:net:b@1#1", func() (*graph.Graph, error) { return diskTestGraph(48), nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.disk.load(keyA); !ok {
		t.Fatal("evicted entry was not re-spilled to disk")
	}
}

func TestInvalidateRemovesDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c := NewArtifactCache(0, 0)
	c.disk = newTestTier(t, dir, 0)

	key := "graph:net:a@1#1"
	if _, err := c.Graph(key, func() (*graph.Graph, error) { return diskTestGraph(32), nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.disk.stats(); st.Files != 1 {
		t.Fatalf("files = %d before Invalidate", st.Files)
	}
	c.Invalidate(key)
	if st := c.disk.stats(); st.Files != 0 {
		t.Fatalf("Invalidate left %d snapshot files", st.Files)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("Invalidate left %d directory entries", len(ents))
	}
	built := false
	if _, err := c.Graph(key, func() (*graph.Graph, error) { built = true; return diskTestGraph(32), nil }); err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("invalidated artifact was served from a stale tier")
	}
}

func TestDiskTierCorruptFileRecomputed(t *testing.T) {
	dir := t.TempDir()
	key := "graph:net:a@1#1"
	c1 := NewArtifactCache(0, 0)
	c1.disk = newTestTier(t, dir, 0)
	g := diskTestGraph(64)
	if _, err := c1.Graph(key, func() (*graph.Graph, error) { return g, nil }); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the snapshot.
	path := c1.disk.pathFor(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewArtifactCache(0, 0)
	c2.disk = newTestTier(t, dir, 0)
	built := false
	got, err := c2.Graph(key, func() (*graph.Graph, error) { built = true; return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("corrupt snapshot was served instead of recomputed")
	}
	if got.Fingerprint() != g.Fingerprint() {
		t.Fatal("recompute returned the wrong graph")
	}
	st := c2.disk.stats()
	if st.VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1", st.VerifyFailures)
	}
	// The rejected file was deleted and the recompute written through.
	if _, _, err := graph.OpenSnapshot(path); err != nil {
		t.Fatalf("corrupt file was not replaced by the recompute: %v", err)
	}
}

func TestDiskTierMislabeledFileRejected(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, dir, 0)
	// A perfectly valid snapshot of the *wrong key*, planted at the
	// filename of another key (a filename collision / shuffled file).
	g := diskTestGraph(32)
	if err := g.WriteSnapshot(tier.pathFor("graph:net:victim@1#1"), "graph:net:other@1#1"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tier.load("graph:net:victim@1#1"); ok {
		t.Fatal("mislabeled snapshot was served")
	}
	if st := tier.stats(); st.VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1", st.VerifyFailures)
	}
}

func TestDiskTierIgnoresNonPersistableKeys(t *testing.T) {
	dir := t.TempDir()
	c := NewArtifactCache(0, 0)
	c.disk = newTestTier(t, dir, 0)
	// Ingest-style keys are path- or upload-addressed, not
	// content-addressed — they must never land on disk.
	for _, key := range []string{"graph:file:/tmp/x.txt", "graph:upload:00ff"} {
		if _, err := c.Graph(key, func() (*graph.Graph, error) { return diskTestGraph(16), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("non-persistable keys produced %d snapshot files", len(ents))
	}
}

func TestDiskTierSweepEnforcesByteBudget(t *testing.T) {
	dir := t.TempDir()
	// A budget that holds roughly one snapshot: the second write must
	// sweep the first.
	g := diskTestGraph(64)
	probe := filepath.Join(dir, "probe.snap")
	if err := g.WriteSnapshot(probe, "x"); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(probe)

	tier := newTestTier(t, dir, info.Size()+8)
	tier.store("graph:net:a@1#1", g)
	tier.store("graph:net:b@1#1", diskTestGraph(64))
	st := tier.stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a one-snapshot budget: %+v", st)
	}
	if st.Bytes > tier.maxBytes {
		t.Fatalf("sweep left %d bytes over the %d budget", st.Bytes, tier.maxBytes)
	}
	if _, _, ok := tier.load("graph:net:b@1#1"); !ok {
		t.Fatal("most recent snapshot was swept instead of the oldest")
	}
}

// TestEngineWarmRestart is the restart-equivalence test at engine
// level: the same jobs on a fresh engine sharing the cache directory
// must produce byte-identical quality, with the partitions served from
// disk rather than recomputed. Both runs must also equal an engine
// without a disk tier.
func TestEngineWarmRestart(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{
		{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.05}, Topology: "grid:4x4", Case: C2Identity, Seed: 3, NumHierarchies: 4, IncludeAssignment: true},
		{Graph: GraphSpec{Network: "PGPgiantcompo", Scale: 0.05}, Topology: "hypercube:4", Case: C4GreedyMin, Seed: 4, NumHierarchies: 4, IncludeAssignment: true},
	}

	ref := New(Options{Workers: 1})
	defer ref.Close()
	want := make([]JobResult, len(specs))
	for i, spec := range specs {
		res, err := ref.Run(spec)
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		want[i] = res.StripPerf()
	}

	e1 := New(Options{Workers: 2, CacheDir: dir})
	for i, spec := range specs {
		res, err := e1.Run(spec)
		if err != nil {
			t.Fatalf("cold run %d: %v", i, err)
		}
		if !reflect.DeepEqual(want[i], res.StripPerf()) {
			t.Fatalf("job %d: the cold run differs from the engine without a disk tier", i)
		}
	}
	st1 := e1.Stats()
	e1.Close()
	if st1.Artifacts == nil || st1.Artifacts.Disk == nil || st1.Artifacts.Disk.Writes == 0 {
		t.Fatalf("cold engine persisted nothing: %+v", st1.Artifacts)
	}

	e2 := New(Options{Workers: 2, CacheDir: dir})
	defer e2.Close()
	for i, spec := range specs {
		res, err := e2.Run(spec)
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if !reflect.DeepEqual(want[i], res.StripPerf()) {
			t.Fatalf("job %d differs across restart", i)
		}
		if !res.PartitionReused {
			t.Errorf("job %d partition recomputed despite a disk snapshot", i)
		}
	}
	st2 := e2.Stats()
	if st2.Artifacts.Disk.Hits == 0 {
		t.Fatalf("warm engine had zero disk hits: %+v", st2.Artifacts.Disk)
	}
}

// TestEnginesShareCacheDirConcurrently runs two engines against one
// cache directory at the same time (CI runs this under -race): torn
// reads, double builds and divergent results are all failures.
func TestEnginesShareCacheDirConcurrently(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Options{Workers: 2, CacheDir: dir})
	defer e1.Close()
	e2 := New(Options{Workers: 2, CacheDir: dir})
	defer e2.Close()

	specs := []JobSpec{
		{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.05}, Topology: "grid:4x4", Case: C2Identity, Seed: 1, NumHierarchies: 3, IncludeAssignment: true},
		{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.05}, Topology: "grid:4x4", Case: C3GreedyAllC, Seed: 2, NumHierarchies: 3, IncludeAssignment: true},
		{Graph: GraphSpec{Network: "PGPgiantcompo", Scale: 0.05}, Topology: "hypercube:4", Case: C2Identity, Seed: 1, NumHierarchies: 3, IncludeAssignment: true},
	}
	const rounds = 3
	results := make([][]JobResult, 2)
	var wg sync.WaitGroup
	for ei, eng := range []*Engine{e1, e2} {
		wg.Add(1)
		go func(ei int, eng *Engine) {
			defer wg.Done()
			out := make([]JobResult, 0, rounds*len(specs))
			for r := 0; r < rounds; r++ {
				for _, spec := range specs {
					res, err := eng.Run(spec)
					if err != nil {
						t.Errorf("engine %d: %v", ei, err)
						return
					}
					out = append(out, *res)
				}
			}
			results[ei] = out
		}(ei, eng)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range results[0] {
		if !reflect.DeepEqual(results[0][i].StripPerf(), results[1][i].StripPerf()) {
			t.Fatalf("job %d differs between engines sharing a cache dir", i)
		}
	}
}

// TestHealedIngestDoesNotResurrectFromDisk is the regression test for
// the stale-disk-artifact hazard: a path-keyed ingest must never be
// served yesterday's bytes from a snapshot file after the file behind
// the path changed across a restart.
func TestHealedIngestDoesNotResurrectFromDisk(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(dataset, []byte("0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	e1 := New(Options{Workers: 1, CacheDir: dir})
	info1, err := e1.IngestPath(dataset, ingest.Options{Format: ingest.FormatSNAP})
	if err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	e1.Close()

	// The file behind the path changes while no engine is running.
	if err := os.WriteFile(dataset, []byte("0 1\n1 2\n2 3\n3 4\n4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(Options{Workers: 1, CacheDir: dir})
	defer e2.Close()
	info2, err := e2.IngestPath(dataset, ingest.Options{Format: ingest.FormatSNAP})
	if err != nil {
		t.Fatalf("re-ingest after edit: %v", err)
	}
	if info2.Fingerprint == info1.Fingerprint || info2.N != 6 {
		t.Fatalf("restarted engine served stale content: n=%d fp=%s (old fp %s)",
			info2.N, info2.Fingerprint, info1.Fingerprint)
	}
	// And the cache directory must hold no snapshot under the ingest key
	// at all — path-keyed artifacts are not content-addressed.
	for _, key := range []string{"graph:file:" + dataset} {
		if _, err := os.Stat(filepath.Join(dir, fileNameFor(key))); !os.IsNotExist(err) {
			t.Fatalf("ingest key %q has a disk snapshot (err=%v)", key, err)
		}
	}
}

func TestDisabledDiskTierSurfacesError(t *testing.T) {
	// A cache-dir path that cannot be a directory: a regular file.
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, CacheDir: filepath.Join(bad, "sub")})
	defer e.Close()
	st := e.Stats()
	if st.Artifacts == nil || st.Artifacts.Disk == nil || st.Artifacts.Disk.Error == "" {
		t.Fatalf("disabled tier did not surface its error: %+v", st.Artifacts)
	}
	// The engine still serves jobs from memory.
	if _, err := e.Run(JobSpec{Graph: GraphSpec{Network: "p2p-Gnutella", Scale: 0.05}, Topology: "grid:4x4", NumHierarchies: 2}); err != nil {
		t.Fatalf("memory-only fallback broken: %v", err)
	}
}

func TestPersistableKeyPolicy(t *testing.T) {
	for key, want := range map[string]bool{
		"graph:net:p2p-Gnutella@0.25#1":               true,
		"part:graph:net:p2p@1#1|k=64|eps=0.03|seed=9": true,
		"part:fp:00ffab|k=64|eps=0.03|seed=9":         true,
		"graph:file:/data/web.mtx":                    false,
		"graph:upload:deadbeef":                       false,
		"":                                            false,
	} {
		if got := persistable(key); got != want {
			t.Errorf("persistable(%q) = %v, want %v", key, got, want)
		}
	}
}

func TestFileNameForIsSafeAndStable(t *testing.T) {
	name := fileNameFor("part:graph:net:a b/c@1#1|k=64")
	if !strings.HasSuffix(name, snapExt) || strings.ContainsAny(name, "/\\: ") {
		t.Fatalf("unsafe snapshot file name %q", name)
	}
	if name != fileNameFor("part:graph:net:a b/c@1#1|k=64") {
		t.Fatal("file name not stable across calls")
	}
}
