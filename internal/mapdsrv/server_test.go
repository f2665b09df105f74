package mapdsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	srv := httptest.NewServer(New(eng, Config{Pprof: true}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, srv *httptest.Server, id string) engine.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var job engine.Job
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch job.Status {
		case engine.StatusDone, engine.StatusFailed:
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const jobBody = `{
	"graph": {"network": "p2p-Gnutella", "scale": 0.05, "seed": 11},
	"topology": "grid:4x4",
	"case": "identity",
	"seed": 42,
	"num_hierarchies": 4
}`

// TestMapdRoundTrip is the end-to-end acceptance check: submit a netgen
// job, poll it to completion, verify the Coco improvement, then submit
// the same topology spec again and observe the cache reuse via
// /v1/topologies.
func TestMapdRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)

	var health map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	var submitted engine.Job
	if code := postJSON(t, srv.URL+"/v1/jobs", jobBody, &submitted); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	job := waitDone(t, srv, submitted.ID)
	if job.Status != engine.StatusDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Result.CocoAfter > job.Result.CocoBefore || job.Result.CocoBefore <= 0 {
		t.Errorf("Coco %d -> %d, want improvement", job.Result.CocoBefore, job.Result.CocoAfter)
	}
	if len(job.Stages) == 0 {
		t.Error("no stage timings in job status")
	}

	// Second submission of the same topology spec must reuse the cached
	// labeling.
	var second engine.Job
	postJSON(t, srv.URL+"/v1/jobs", jobBody, &second)
	if done := waitDone(t, srv, second.ID); done.Status != engine.StatusDone {
		t.Fatalf("second job failed: %s", done.Error)
	}

	var topos struct {
		Topologies []engine.CacheInfo `json:"topologies"`
		Hits       int64              `json:"hits"`
		Misses     int64              `json:"misses"`
	}
	if code := getJSON(t, srv.URL+"/v1/topologies", &topos); code != http.StatusOK {
		t.Fatalf("GET /v1/topologies: %d", code)
	}
	if len(topos.Topologies) != 1 || topos.Topologies[0].Spec != "grid:4x4" {
		t.Fatalf("topologies = %+v, want the one cached grid", topos.Topologies)
	}
	if topos.Misses != 1 || topos.Hits < 1 {
		t.Errorf("cache stats hits=%d misses=%d, want one build and ≥1 reuse", topos.Hits, topos.Misses)
	}

	// Determinism across the HTTP boundary: both jobs used seed 42.
	if job.Result.CocoAfter != 0 {
		var a, b engine.Job
		getJSON(t, srv.URL+"/v1/jobs/"+submitted.ID, &a)
		getJSON(t, srv.URL+"/v1/jobs/"+second.ID, &b)
		if a.Result.CocoAfter != b.Result.CocoAfter || a.Result.CutAfter != b.Result.CutAfter {
			t.Errorf("same spec, same seed, different results: %+v vs %+v", a.Result, b.Result)
		}
	}

	var list struct {
		Jobs []engine.Job `json:"jobs"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d", code)
	}
	if len(list.Jobs) != 2 {
		t.Errorf("job list has %d entries, want 2", len(list.Jobs))
	}
}

func TestMapdErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	var out map[string]any
	if code := postJSON(t, srv.URL+"/v1/jobs", `{"bad json`, &out); code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", code)
	}
	// Fields outside the spec schema are refused, including the retired
	// timer_workers on jobs and batches.
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"unknown_field": 1}`},
		{"/v1/jobs", `{"graph": {"n": 9, "edges": [[0,1,1]]}, "topology": "grid:2x2", "timer_workers": 4}`},
		{"/v1/batches", `{"graphs": [{"n": 9, "edges": [[0,1,1]]}], "topologies": ["grid:2x2"], "timer_workers": 4}`},
	} {
		if code := postJSON(t, srv.URL+tc.path, tc.body, &out); code != http.StatusBadRequest {
			t.Errorf("unknown field: POST %s %s: status %d, want 400", tc.path, tc.body, code)
		}
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/job-999999", &out); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	// A job with a bad topology is accepted, then fails asynchronously.
	var job engine.Job
	if code := postJSON(t, srv.URL+"/v1/jobs", `{"graph": {"n": 9, "edges": [[0,1,1]]}, "topology": "bogus"}`, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if done := waitDone(t, srv, job.ID); done.Status != engine.StatusFailed {
		t.Errorf("bad-topology job status %s, want failed", done.Status)
	}
}

// TestMapdRefusesBodyPaddedPastLimit: a valid job spec followed by
// padding that takes the body past MaxBody is refused whole with 400,
// as the router refuses it, not decoded up to the spec's end.
func TestMapdRefusesBodyPaddedPastLimit(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	srv := httptest.NewServer(New(eng, Config{MaxBody: 1 << 10}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	spec := `{"graph": {"n": 9, "edges": [[0,1,1]]}, "topology": "grid:2x2"}`
	for _, tc := range []struct {
		pad  int
		want int
	}{{1<<10 - len(spec), http.StatusAccepted}, {1<<10 - len(spec) + 1, http.StatusBadRequest}} {
		var out struct {
			Error string `json:"error"`
		}
		code := postJSON(t, srv.URL+"/v1/jobs", spec+strings.Repeat(" ", tc.pad), &out)
		if code != tc.want || (code == http.StatusBadRequest) != strings.Contains(out.Error, "request body too large") {
			t.Errorf("%d-byte body: status %d, error %q; want %d", len(spec)+tc.pad, code, out.Error, tc.want)
		}
	}
}

// TestMapdSubmitOmitsInlineEdges: the 202 answer to an inline-graph
// job does not echo the edge list, so its size does not grow with the
// graph's.
func TestMapdSubmitOmitsInlineEdges(t *testing.T) {
	srv, _ := newTestServer(t)
	const n = 1200
	var edges []string
	for v := 0; v < n; v++ {
		edges = append(edges, fmt.Sprintf("[%d,%d,1]", v, (v+1)%n), fmt.Sprintf("[%d,%d,2]", v, (v+7)%n))
	}
	body := `{"graph": {"edges": [` + strings.Join(edges, ",") + `]}, "topology": "grid:2x2", "num_hierarchies": 2}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d: %s", resp.StatusCode, raw)
	}
	var job struct {
		ID   string `json:"id"`
		Spec struct {
			Graph map[string]json.RawMessage `json:"graph"`
		} `json:"spec"`
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	if _, ok := job.Spec.Graph["edges"]; ok {
		t.Errorf("202 body echoes the %d inline edges", len(edges))
	}
	if len(raw) >= 4<<10 {
		t.Errorf("202 body is %d bytes for a %d-byte request, want under 4 KiB", len(raw), len(body))
	}
	if done := waitDone(t, srv, job.ID); done.Status != engine.StatusDone || done.Result.GraphM != len(edges) {
		t.Errorf("inline job: %s (%s), want done on all %d edges", done.Status, done.Error, len(edges))
	}
}

func TestMapdBatch(t *testing.T) {
	srv, _ := newTestServer(t)
	var out struct {
		JobIDs []string `json:"job_ids"`
	}
	body := `{
		"graphs": [{"network": "p2p-Gnutella", "scale": 0.05, "seed": 11}],
		"topologies": ["grid:4x4", "hypercube:4"],
		"case": "identity",
		"reps": 2,
		"num_hierarchies": 3
	}`
	if code := postJSON(t, srv.URL+"/v1/batches", body, &out); code != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: %d", code)
	}
	if len(out.JobIDs) != 4 {
		t.Fatalf("batch returned %d jobs, want 4", len(out.JobIDs))
	}
	for _, id := range out.JobIDs {
		if done := waitDone(t, srv, id); done.Status != engine.StatusDone {
			t.Fatalf("batch job %s: %s (%s)", id, done.Status, done.Error)
		}
	}
}

// TestMapdBatchBeyondRetention: a batch of more jobs than the engine
// retains is refused with 400 before any job is queued, including
// batches whose graphs × topologies × reps product wraps an int64 (4 ×
// 2^62 = 2^64), with and without skip_too_small.
func TestMapdBatchBeyondRetention(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueCap: 2, RetainJobs: 4})
	srv := httptest.NewServer(New(eng, Config{}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	graph := `{"network": "p2p-Gnutella", "scale": 0.05, "seed": 11}`
	four := strings.Repeat(graph+",", 3) + graph
	for name, body := range map[string]string{
		"retain+1":         `{"graphs": [` + graph + `], "topologies": ["grid:4x4"], "reps": 5}`,
		"wrapping product": `{"graphs": [` + four + `], "topologies": ["grid:4x4"], "reps": 4611686018427387904}`,
		"wrapping, skipped": `{"graphs": [` + four + `], "topologies": ["grid:32x32"], "reps": 4611686018427387904,
			"skip_too_small": true}`,
	} {
		var out struct {
			Error  string   `json:"error"`
			JobIDs []string `json:"job_ids"`
		}
		code := postJSON(t, srv.URL+"/v1/batches", body, &out)
		if code != http.StatusBadRequest || len(out.JobIDs) != 0 || !strings.Contains(out.Error, "retention window of 4 jobs") {
			t.Errorf("%s: status %d, %d job IDs, error %q; want 400, none, the retention window", name, code, len(out.JobIDs), out.Error)
		}
	}
	if n := len(eng.Jobs()); n != 0 {
		t.Errorf("refused batches queued %d jobs", n)
	}
}

// TestMapdStatsAndPprof covers the observability surface: /v1/stats
// must report pool state and count served jobs, and the pprof mount
// must follow the opt-in flag.
func TestMapdStatsAndPprof(t *testing.T) {
	srv, _ := newTestServer(t)

	var submitted engine.Job
	if code := postJSON(t, srv.URL+"/v1/jobs", jobBody, &submitted); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	waitDone(t, srv, submitted.ID)

	var stats struct {
		Engine     engine.Stats `json:"engine"`
		Goroutines int          `json:"goroutines"`
		HeapAlloc  uint64       `json:"heap_alloc_bytes"`
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if stats.Engine.Workers != 2 || stats.Engine.JobsServed < 1 || stats.Engine.JobsRetained < 1 {
		t.Errorf("engine stats = %+v, want 2 workers and ≥1 served/retained", stats.Engine)
	}
	// Cumulative per-stage seconds: the operator's base-vs-TIMER split.
	for _, stage := range []string{"partition", "map", "enhance"} {
		if _, ok := stats.Engine.StageSeconds[stage]; !ok {
			t.Errorf("stage %q missing from /v1/stats stage_seconds: %+v", stage, stats.Engine.StageSeconds)
		}
	}
	if stats.Goroutines <= 0 || stats.HeapAlloc == 0 {
		t.Errorf("runtime stats missing: %+v", stats)
	}

	// The test server mounts pprof (opt-in flag on).
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d, want 200", resp.StatusCode)
	}

	// Without the flag, the profiling surface must not exist.
	eng := engine.New(engine.Options{Workers: 1})
	plain := httptest.NewServer(New(eng, Config{}))
	defer func() {
		plain.Close()
		eng.Close()
	}()
	resp, err = http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without -pprof: status %d, want 404", resp.StatusCode)
	}
}

func TestMapdBenchMatrices(t *testing.T) {
	srv, _ := newTestServer(t)
	var out struct {
		Matrices []bench.Spec `json:"matrices"`
	}
	if code := getJSON(t, srv.URL+"/v1/bench/matrices", &out); code != http.StatusOK {
		t.Fatalf("GET /v1/bench/matrices: %d", code)
	}
	if len(out.Matrices) == 0 {
		t.Fatal("no canonical matrices served")
	}
	names := make(map[string]bool)
	for _, m := range out.Matrices {
		names[m.Name] = true
		// Every served matrix must expand cleanly, so a client can turn
		// it straight into engine batches.
		if _, _, err := m.Expand(); err != nil {
			t.Errorf("matrix %s does not expand: %v", m.Name, err)
		}
	}
	if !names["smoke"] || !names["paper"] {
		t.Errorf("served matrices %v, want smoke and paper", names)
	}
}

// TestMapdWaitAndArtifactStats covers the blocking job fetch
// (?wait=1) and the artifact-cache counters in /v1/stats: submitting
// the same netgen job twice must report cache hits for the second
// one's graph and partition artifacts.
func TestMapdWaitAndArtifactStats(t *testing.T) {
	srv, _ := newTestServer(t)

	var first engine.Job
	if code := postJSON(t, srv.URL+"/v1/jobs", jobBody, &first); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	var done engine.Job
	if code := getJSON(t, srv.URL+"/v1/jobs/"+first.ID+"?wait=1", &done); code != http.StatusOK {
		t.Fatalf("GET job ?wait=1: status %d", code)
	}
	if done.Status != engine.StatusDone {
		t.Fatalf("waited job is %s (%s), want done", done.Status, done.Error)
	}

	var second engine.Job
	if code := postJSON(t, srv.URL+"/v1/jobs", jobBody, &second); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs (2nd): status %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+second.ID+"?wait=true", &done); code != http.StatusOK {
		t.Fatalf("GET job ?wait=true: status %d", code)
	}
	if done.Status != engine.StatusDone {
		t.Fatalf("second job is %s (%s), want done", done.Status, done.Error)
	}
	if done.Result == nil || !done.Result.PartitionReused {
		t.Errorf("identical resubmission did not reuse the partition artifact: %+v", done.Result)
	}

	var stats struct {
		Engine engine.Stats `json:"engine"`
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	a := stats.Engine.Artifacts
	if a == nil {
		t.Fatal("artifact stats missing from /v1/stats engine block")
	}
	if a.Misses < 2 { // first job's graph + partition builds
		t.Errorf("artifact misses = %d, want ≥ 2", a.Misses)
	}
	if a.Hits+a.InflightWaits < 2 { // second job's graph + partition
		t.Errorf("artifact hits+inflight = %d+%d, want ≥ 2", a.Hits, a.InflightWaits)
	}

	// Waiting on an unknown job is a 404, not a hang.
	var errBody map[string]any
	if code := getJSON(t, srv.URL+"/v1/jobs/job-999999?wait=1", &errBody); code != http.StatusNotFound {
		t.Fatalf("GET unknown job ?wait=1: status %d, want 404", code)
	}
}

// TestMapdGraphIngest is the ingest acceptance path: upload a real
// graph file, run a job against its reference, observe the dedup +
// artifact-cache hit on a second identical upload, and ingest the same
// file server-side by path.
func TestMapdGraphIngest(t *testing.T) {
	srv, _ := newTestServer(t)
	const fixture = "../../internal/ingest/testdata/ca-grqc-excerpt.txt"
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}

	upload := func(name string) (int, engine.GraphInfo, bool) {
		resp, err := http.Post(srv.URL+"/v1/graphs?name="+name, "text/plain", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Graph        engine.GraphInfo `json:"graph"`
			Deduplicated bool             `json:"deduplicated"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decoding upload response: %v", err)
		}
		return resp.StatusCode, body.Graph, body.Deduplicated
	}

	code, info, dup := upload("ca-grqc.txt")
	if code != http.StatusCreated || dup {
		t.Fatalf("first upload: status %d dup %v", code, dup)
	}
	if !strings.HasPrefix(info.Ref, "upload:") || info.N != 90 || info.M != 203 {
		t.Fatalf("upload registered as %+v", info)
	}

	// Run a job against the uploaded graph's reference.
	var job engine.Job
	spec := `{"graph": {"ref": "` + info.Ref + `"}, "topology": "grid:4x4", "case": "identity", "seed": 7, "num_hierarchies": 4}`
	if code := postJSON(t, srv.URL+"/v1/jobs", spec, &job); code != http.StatusAccepted {
		t.Fatalf("POST job by ref: status %d", code)
	}
	done := waitDone(t, srv, job.ID)
	if done.Status != engine.StatusDone {
		t.Fatalf("ref job %s (%s)", done.Status, done.Error)
	}
	if done.Result.GraphN != 90 || done.Result.GraphM != 203 {
		t.Fatalf("ref job ran on n=%d m=%d", done.Result.GraphN, done.Result.GraphM)
	}
	if done.Result.CocoAfter > done.Result.CocoBefore {
		t.Fatalf("TIMER worsened coco on ingested graph: %d -> %d", done.Result.CocoBefore, done.Result.CocoAfter)
	}

	// Second identical upload (different name): deduplicated, and served
	// as an artifact-cache hit.
	var statsBefore struct {
		Engine engine.Stats `json:"engine"`
	}
	getJSON(t, srv.URL+"/v1/stats", &statsBefore)
	code, info2, dup2 := upload("same-bytes-other-name.txt")
	if code != http.StatusOK || !dup2 || info2.Ref != info.Ref {
		t.Fatalf("second upload: status %d dup %v ref %q", code, dup2, info2.Ref)
	}
	var stats struct {
		Engine engine.Stats `json:"engine"`
	}
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if stats.Engine.Artifacts == nil || statsBefore.Engine.Artifacts == nil {
		t.Fatal("artifact stats missing")
	}
	if stats.Engine.Artifacts.Hits <= statsBefore.Engine.Artifacts.Hits {
		t.Errorf("second identical upload was not an artifact-cache hit (hits %d -> %d)",
			statsBefore.Engine.Artifacts.Hits, stats.Engine.Artifacts.Hits)
	}
	if stats.Engine.Ingest == nil || stats.Engine.Ingest.DedupHits != 1 || stats.Engine.Ingest.Ingested != 1 {
		t.Errorf("ingest counters = %+v, want 1 ingested / 1 dedup", stats.Engine.Ingest)
	}

	// Server-side path ingest via JSON body.
	var pathResp struct {
		Graph engine.GraphInfo `json:"graph"`
	}
	if code := postJSON(t, srv.URL+"/v1/graphs", `{"path": "`+fixture+`"}`, &pathResp); code != http.StatusCreated {
		t.Fatalf("POST path ingest: status %d", code)
	}
	if pathResp.Graph.Ref != "file:"+fixture {
		t.Fatalf("path ingest ref %q", pathResp.Graph.Ref)
	}
	if pathResp.Graph.Fingerprint != info.Fingerprint {
		t.Fatalf("path and upload fingerprints differ: %s vs %s", pathResp.Graph.Fingerprint, info.Fingerprint)
	}

	// Listing and single-ref lookup.
	var list struct {
		Graphs []engine.GraphInfo `json:"graphs"`
	}
	if code := getJSON(t, srv.URL+"/v1/graphs", &list); code != http.StatusOK || len(list.Graphs) != 2 {
		t.Fatalf("GET /v1/graphs: status %d, %d entries", code, len(list.Graphs))
	}
	var one struct {
		Graph engine.GraphInfo `json:"graph"`
	}
	if code := getJSON(t, srv.URL+"/v1/graphs/"+info.Ref, &one); code != http.StatusOK || one.Graph.Ref != info.Ref {
		t.Fatalf("GET /v1/graphs/%s: status %d ref %q", info.Ref, code, one.Graph.Ref)
	}
	var errBody map[string]any
	if code := getJSON(t, srv.URL+"/v1/graphs/upload:doesnotexist", &errBody); code != http.StatusNotFound {
		t.Fatalf("GET unknown graph: status %d", code)
	}

	// Malformed ingests are 400s.
	if code := postJSON(t, srv.URL+"/v1/graphs", `{"path": ""}`, &errBody); code != http.StatusBadRequest {
		t.Fatalf("empty path: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/graphs", `{"path": "/no/such/file.txt"}`, &errBody); code != http.StatusBadRequest {
		t.Fatalf("missing file: status %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/graphs", "text/plain", strings.NewReader("not a graph\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: status %d", resp.StatusCode)
	}
}

// TestMapdSpooledUpload pins the streaming upload path: graph bytes are
// spooled to a temp file (never buffered whole in memory), the
// client-supplied ?name= still drives extension-based format detection,
// the size cap rejects oversized bodies with 413, and no spool files
// are left behind.
func TestMapdSpooledUpload(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	srv := httptest.NewServer(New(eng, Config{MaxBody: 4096}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	// A Matrix Market body uploaded under an .mtx name: only extension
	// detection (from ?name=, not from the spool's temp-file name) or
	// the content magic can classify it; the fixture's %%MatrixMarket
	// header exercises both.
	data, err := os.ReadFile("../../internal/ingest/testdata/small.mtx")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/graphs?name=small.mtx", "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Graph engine.GraphInfo `json:"graph"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mtx upload: status %d", resp.StatusCode)
	}
	if body.Graph.N != 16 || body.Graph.M != 24 {
		t.Fatalf("mtx upload parsed as n=%d m=%d, want 16/24", body.Graph.N, body.Graph.M)
	}

	// Oversized upload: the 4 KiB cap must reject it with 413 before the
	// server spools the whole body.
	big := bytes.Repeat([]byte("1 2\n"), 2048) // 8 KiB of edges
	resp, err = http.Post(srv.URL+"/v1/graphs?name=big.txt", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}

	// The handler deletes its spool files even on the error paths.
	leftovers, err := filepath.Glob(filepath.Join(os.TempDir(), "mapd-upload-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("spool files left behind: %v", leftovers)
	}
}
