package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ingest"
)

const grqcFixture = "../ingest/testdata/ca-grqc-excerpt.txt"

func TestIngestPathAndRunByRef(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	info, err := e.IngestPath(grqcFixture, ingest.Options{})
	if err != nil {
		t.Fatalf("IngestPath: %v", err)
	}
	if info.Ref != "file:"+grqcFixture {
		t.Fatalf("ref = %q", info.Ref)
	}
	if info.N != 90 || info.M != 203 {
		t.Fatalf("info n=%d m=%d, want 90/203", info.N, info.M)
	}
	if info.Stats.Format != "snap" {
		t.Fatalf("format %q", info.Stats.Format)
	}

	// Re-ingesting the same path is a dedup hit, not a reload.
	again, err := e.IngestPath(grqcFixture, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != info.Fingerprint {
		t.Fatalf("re-ingest changed fingerprint")
	}
	st, active := e.IngestSnapshot()
	if !active || st.Ingested != 1 || st.DedupHits != 1 || st.Registered != 1 {
		t.Fatalf("ingest stats = %+v, want 1 ingested / 1 dedup / 1 registered", st)
	}

	// A job by reference runs the full pipeline on the ingested graph.
	res, err := e.Run(JobSpec{
		Graph:          GraphSpec{Ref: info.Ref},
		Topology:       "grid:4x4",
		Case:           C2Identity,
		NumHierarchies: 4,
	})
	if err != nil {
		t.Fatalf("Run by ref: %v", err)
	}
	if res.GraphN != 90 {
		t.Fatalf("job ran on n=%d, want 90", res.GraphN)
	}
	if res.CocoAfter > res.CocoBefore {
		t.Fatalf("TIMER worsened coco: %d -> %d", res.CocoBefore, res.CocoAfter)
	}

	// The same spec again reuses the cached partition (the graph key is
	// the CSR fingerprint, stable across runs).
	res2, err := e.Run(JobSpec{
		Graph:          GraphSpec{Ref: info.Ref},
		Topology:       "grid:4x4",
		Case:           C2Identity,
		NumHierarchies: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PartitionReused {
		t.Fatalf("second identical ref job did not reuse the cached partition")
	}
	if res2.CocoAfter != res.CocoAfter {
		t.Fatalf("ref jobs not deterministic: coco %d vs %d", res2.CocoAfter, res.CocoAfter)
	}
}

func TestIngestSpoolDedupAndEvictionHealing(t *testing.T) {
	// The fixture stands in for mapd's spool file. A one-entry artifact
	// cache forces eviction on every insert.
	e := New(Options{Workers: 1})
	defer e.Close()
	e.artifacts = NewArtifactCache(1, 0)

	info, dup, err := e.IngestSpool("ca-grqc.txt", grqcFixture, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatalf("first upload reported as duplicate")
	}
	if !strings.HasPrefix(info.Ref, "upload:") {
		t.Fatalf("ref = %q", info.Ref)
	}

	// Identical bytes under a different name dedup onto the same ref,
	// and the resident entry registers an artifact-cache hit.
	before := e.artifacts.Stats().Hits
	info2, dup2, err := e.IngestSpool("other-name.txt", grqcFixture, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !dup2 || info2.Ref != info.Ref {
		t.Fatalf("second upload: dup=%v ref=%q, want dedup onto %q", dup2, info2.Ref, info.Ref)
	}
	if hits := e.artifacts.Stats().Hits; hits != before+1 {
		t.Fatalf("second upload: cache hits %d, want %d", hits, before+1)
	}

	// Evict the upload by ingesting a file into the one-entry cache.
	if _, err := e.IngestPath(grqcFixture, ingest.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.GraphByRef(info.Ref); err == nil || !strings.Contains(err.Error(), "upload it again") {
		t.Fatalf("evicted upload should demand a re-upload, got %v", err)
	}
	// Asking again must keep failing (the error is cached), not hang or
	// succeed.
	if _, err := e.GraphByRef(info.Ref); err == nil {
		t.Fatalf("evicted upload resolved after failure")
	}

	// Re-uploading the bytes heals the reference.
	if _, _, err := e.IngestSpool("ca-grqc.txt", grqcFixture, ingest.Options{}); err != nil {
		t.Fatal(err)
	}
	g, err := e.GraphByRef(info.Ref)
	if err != nil {
		t.Fatalf("re-uploaded ref still broken: %v", err)
	}
	if g.N() != info.N {
		t.Fatalf("healed graph has n=%d, want %d", g.N(), info.N)
	}
}

func TestIngestFileReingestAfterEviction(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	e.artifacts = NewArtifactCache(1, 0)
	info, err := e.IngestPath(grqcFixture, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Evict the file's graph with an unrelated artifact.
	filler := graph.NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 1).Build()
	if _, err := e.artifacts.Graph("graph:net:filler", func() (*graph.Graph, error) {
		return filler, nil
	}); err != nil {
		t.Fatal(err)
	}
	// file: refs heal silently by re-ingesting from disk.
	g, err := e.GraphByRef(info.Ref)
	if err != nil {
		t.Fatalf("re-ingest after eviction: %v", err)
	}
	if g.N() != info.N {
		t.Fatalf("re-ingested graph n=%d, want %d", g.N(), info.N)
	}
	st, _ := e.IngestSnapshot()
	if st.Reingests != 1 {
		t.Fatalf("Reingests = %d, want 1", st.Reingests)
	}
}

func TestGraphsListingAndUnknownRef(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, err := e.GraphByRef("upload:deadbeef"); err == nil {
		t.Fatalf("unknown ref resolved")
	}
	if _, err := e.Run(JobSpec{Graph: GraphSpec{Ref: "upload:deadbeef"}, Topology: "grid:4x4"}); err == nil {
		t.Fatalf("job with unknown ref ran")
	}
	if _, err := e.IngestPath(grqcFixture, ingest.Options{}); err != nil {
		t.Fatal(err)
	}
	spool := filepath.Join(t.TempDir(), "spool")
	if err := os.WriteFile(spool, []byte("1 2\n2 3\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.IngestSpool("x", spool, ingest.Options{}); err != nil {
		t.Fatal(err)
	}
	gs := e.Graphs()
	if len(gs) != 2 {
		t.Fatalf("Graphs() returned %d entries, want 2", len(gs))
	}
	if !strings.HasPrefix(gs[0].Ref, "file:") || !strings.HasPrefix(gs[1].Ref, "upload:") {
		t.Fatalf("listing not sorted by ref: %q, %q", gs[0].Ref, gs[1].Ref)
	}
	if info, ok := e.GraphInfo(gs[1].Ref); !ok || info.N != 4 {
		t.Fatalf("GraphInfo(%q) = %+v, %v", gs[1].Ref, info, ok)
	}
	// Stats surfaces the ingest section once activity exists.
	if s := e.Stats(); s.Ingest == nil || s.Ingest.Registered != 2 {
		t.Fatalf("Stats().Ingest = %+v", s.Ingest)
	}
}

func TestBatchByRef(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	info, err := e.IngestPath(grqcFixture, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := e.RunBatch(BatchSpec{
		Graphs:         []GraphSpec{{Ref: info.Ref}},
		Topologies:     []string{"grid:4x4"},
		Case:           C2Identity,
		Reps:           2,
		NumHierarchies: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Status != StatusDone {
			t.Fatalf("batch job %s: %s (%s)", j.ID, j.Status, j.Error)
		}
		if j.Result.GraphN != 90 {
			t.Fatalf("batch job ran on n=%d", j.Result.GraphN)
		}
	}
	// Bad refs fail the submission up front.
	if _, err := e.SubmitBatch(BatchSpec{
		Graphs:     []GraphSpec{{Ref: "file:/no/such/file"}},
		Topologies: []string{"grid:4x4"},
	}); err == nil {
		t.Fatalf("batch with unknown ref submitted")
	}
}
