package ingest

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

func mustLoadFile(t *testing.T, path string, opt Options) *Result {
	t.Helper()
	res, err := LoadFile(path, opt)
	if err != nil {
		t.Fatalf("LoadFile(%s): %v", path, err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatalf("loaded graph invalid: %v", err)
	}
	return res
}

// LoadBytes loads a graph from an in-memory input, the way LoadFileAs
// loads a spooled upload. name is only used for format detection and
// errors; it may be empty.
func LoadBytes(name string, data []byte, opt Options) (*Result, error) {
	src := source{
		name: name,
		size: int64(len(data)),
		open: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		},
		at: bytes.NewReader(data),
	}
	return timedLoad(src, opt)
}

func TestLoadSNAPExcerpt(t *testing.T) {
	res := mustLoadFile(t, "testdata/ca-grqc-excerpt.txt", Options{})
	g := res.Graph
	if g.N() != 90 {
		t.Fatalf("N = %d, want 90", g.N())
	}
	if g.M() != 203 {
		t.Fatalf("M = %d, want 203", g.M())
	}
	// The fixture lists both directions of every edge (the SNAP ca-GrQc
	// convention): each must merge to one unit-weight undirected edge.
	if res.Stats.MultiEdges != 203 {
		t.Fatalf("MultiEdges = %d, want 203", res.Stats.MultiEdges)
	}
	if res.Stats.Entries != 406 {
		t.Fatalf("Entries = %d, want 406", res.Stats.Entries)
	}
	if g.TotalEdgeWeight() != 203 {
		t.Fatalf("unit weights expected: total edge weight %d, want 203", g.TotalEdgeWeight())
	}
	if res.Stats.Format != "snap" {
		t.Fatalf("format %q, want snap", res.Stats.Format)
	}
	if len(res.Remap) != 90 {
		t.Fatalf("remap length %d", len(res.Remap))
	}
	if res.Fingerprint.IsZero() {
		t.Fatalf("zero fingerprint")
	}
}

// TestLoadDeterminism pins the ingest determinism contract: the same
// bytes loaded twice — by path or in memory, sequentially or with the
// chunked parallel fill — produce the identical CSR fingerprint.
func TestLoadDeterminism(t *testing.T) {
	const path = "testdata/ca-grqc-excerpt.txt"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base := mustLoadFile(t, path, Options{})
	again := mustLoadFile(t, path, Options{})
	if base.Fingerprint != again.Fingerprint {
		t.Fatalf("two loads of the same file disagree: %v vs %v", base.Fingerprint, again.Fingerprint)
	}
	upload, err := LoadBytes("ca-grqc-excerpt.txt", data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if upload.Fingerprint != base.Fingerprint {
		t.Fatalf("upload vs path load disagree: %v vs %v", upload.Fingerprint, base.Fingerprint)
	}
	seq := mustLoadFile(t, path, Options{Workers: 1})
	par := mustLoadFile(t, path, Options{Workers: 8})
	if seq.Fingerprint != par.Fingerprint {
		t.Fatalf("sequential vs parallel fill disagree: %v vs %v", seq.Fingerprint, par.Fingerprint)
	}
}

// TestRoundTripMETIS is the sigmaos snippet-2 shape: SNAP -> CSR ->
// WriteMETIS -> ReadMETIS preserves the fingerprint byte for byte.
func TestRoundTripMETIS(t *testing.T) {
	res := mustLoadFile(t, "testdata/facebook-excerpt.txt", Options{})
	var buf bytes.Buffer
	if err := res.Graph.WriteMETIS(&buf); err != nil {
		t.Fatal(err)
	}
	exported := append([]byte(nil), buf.Bytes()...)
	back, err := graph.ReadMETIS(&buf)
	if err != nil {
		t.Fatalf("ReadMETIS of exported graph: %v", err)
	}
	if back.Fingerprint() != res.Fingerprint {
		t.Fatalf("round trip changed the graph: %v vs %v", back.Fingerprint(), res.Fingerprint)
	}
	// And through the ingest loader's METIS path as well.
	reload, err := LoadBytes("roundtrip.graph", exported, Options{Format: FormatMETIS})
	if err == nil {
		if reload.Fingerprint != res.Fingerprint {
			t.Fatalf("ingest METIS reload changed the graph")
		}
	} else {
		t.Fatalf("ingest METIS reload: %v", err)
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	res := mustLoadFile(t, "testdata/small.mtx", Options{})
	// The fixture is the 4x4 grid graph.
	b := graph.NewBuilder(16)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := r*4 + c
			if c+1 < 4 {
				b.AddEdge(v, v+1, 1)
			}
			if r+1 < 4 {
				b.AddEdge(v, v+4, 1)
			}
		}
	}
	want := b.Build()
	if res.Fingerprint != want.Fingerprint() {
		t.Fatalf("small.mtx != 4x4 grid: %v vs %v", res.Fingerprint, want.Fingerprint())
	}
	if res.Stats.Format != "matrixmarket" {
		t.Fatalf("format %q", res.Stats.Format)
	}
	if res.Remap[0] != 1 || res.Remap[15] != 16 {
		t.Fatalf("matrix remap should be 1-based identity, got %v...", res.Remap[:2])
	}
}

func TestMatrixMarketWeighted(t *testing.T) {
	res := mustLoadFile(t, "testdata/weighted.mtx", Options{})
	g := res.Graph
	if g.N() != 5 || g.M() != 6 {
		t.Fatalf("got n=%d m=%d, want 5/6", g.N(), g.M())
	}
	if res.Stats.SelfLoops != 1 {
		t.Fatalf("SelfLoops = %d, want 1 (the diagonal entry)", res.Stats.SelfLoops)
	}
	if res.Stats.MultiEdges != 5 {
		t.Fatalf("MultiEdges = %d, want 5", res.Stats.MultiEdges)
	}
	// Weighted input => WeightAuto sums: |1.5| rounds to 2, listed in
	// both triangles => 4.
	if w := g.EdgeWeight(0, 1); w != 4 {
		t.Fatalf("weight(1,2) = %d, want 4", w)
	}
	if w := g.EdgeWeight(3, 4); w != 2 { // 0.25 floors to 1, both triangles
		t.Fatalf("weight(4,5) = %d, want 2", w)
	}
	if w := g.EdgeWeight(1, 4); w != 1 { // listed once
		t.Fatalf("weight(2,5) = %d, want 1", w)
	}
}

func TestMETISWeights(t *testing.T) {
	res := mustLoadFile(t, "testdata/tiny.graph", Options{})
	// Rebuild the generator's graph directly and compare fingerprints.
	b := graph.NewBuilder(7)
	type e struct {
		u, v int
		w    int64
	}
	for _, x := range []e{{0, 1, 1}, {0, 2, 2}, {0, 5, 3}, {1, 2, 2}, {1, 3, 1}, {1, 6, 4}, {2, 4, 3}, {3, 4, 2}, {3, 5, 2}, {3, 6, 6}, {4, 5, 2}} {
		b.AddEdge(x.u, x.v, x.w)
	}
	for v, w := range []int64{4, 2, 1, 3, 2, 5, 1} {
		b.SetVertexWeight(v, w)
	}
	want := b.Build()
	if res.Fingerprint != want.Fingerprint() {
		t.Fatalf("tiny.graph loaded wrong: %v vs %v", res.Fingerprint, want.Fingerprint())
	}
	if res.Stats.Format != "metis" {
		t.Fatalf("format %q", res.Stats.Format)
	}
}

// TestMETISSelfLoopNormalized: graph.ReadMETIS rejects the self-loop
// explicitly (the PR's reader fix), while the ingest normalizer drops
// and counts it.
func TestMETISSelfLoopNormalized(t *testing.T) {
	if _, err := graph.ReadMETISFile("testdata/selfloop.graph"); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("ReadMETIS should reject the self-loop by name, got %v", err)
	}
	res := mustLoadFile(t, "testdata/selfloop.graph", Options{})
	if res.Stats.SelfLoops != 1 {
		t.Fatalf("SelfLoops = %d, want 1", res.Stats.SelfLoops)
	}
	if res.Graph.N() != 3 || res.Graph.M() != 3 {
		t.Fatalf("got n=%d m=%d, want 3/3", res.Graph.N(), res.Graph.M())
	}
}

func TestLargestComponent(t *testing.T) {
	full := mustLoadFile(t, "testdata/ca-grqc-excerpt.txt", Options{})
	lcc := mustLoadFile(t, "testdata/ca-grqc-excerpt.txt", Options{LargestComponent: true})
	if lcc.Graph.N() != 82 {
		t.Fatalf("LCC has %d vertices, want 82", lcc.Graph.N())
	}
	if lcc.Stats.ComponentsDropped != 1 || lcc.Stats.VerticesDropped != 8 {
		t.Fatalf("drop stats = %d components / %d vertices, want 1/8",
			lcc.Stats.ComponentsDropped, lcc.Stats.VerticesDropped)
	}
	if !lcc.Graph.IsConnected() {
		t.Fatalf("LCC not connected")
	}
	// Remap survivors must be a subset of the full load's ids.
	ids := make(map[int64]bool, len(full.Remap))
	for _, id := range full.Remap {
		ids[id] = true
	}
	for v, id := range lcc.Remap {
		if !ids[id] {
			t.Fatalf("LCC vertex %d remaps to unknown id %d", v, id)
		}
	}
}

// TestRemapTranslatesEdges: every CSR edge corresponds, through the
// remap table, to an edge of the input file.
func TestRemapTranslatesEdges(t *testing.T) {
	data, err := os.ReadFile("testdata/facebook-excerpt.txt")
	if err != nil {
		t.Fatal(err)
	}
	orig := make(map[[2]int64]bool)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		var u, v int64
		fmt.Sscan(f[0], &u)
		fmt.Sscan(f[1], &v)
		if u > v {
			u, v = v, u
		}
		orig[[2]int64{u, v}] = true
	}
	res := mustLoadFile(t, "testdata/facebook-excerpt.txt", Options{})
	g := res.Graph
	for v := 0; v < g.N(); v++ {
		nbr, _ := g.Neighbors(v)
		for _, u := range nbr {
			a, b := res.Remap[v], res.Remap[u]
			if a > b {
				a, b = b, a
			}
			if !orig[[2]int64{a, b}] {
				t.Fatalf("CSR edge {%d,%d} = original {%d,%d} not in input", v, u, a, b)
			}
		}
	}
}

func TestWeightModes(t *testing.T) {
	in := []byte("1 2\n2 1\n2 3\n")
	auto, err := LoadBytes("t.txt", in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := auto.Graph.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("WeightAuto on unweighted input: weight %d, want 1", w)
	}
	sum, err := LoadBytes("t.txt", in, Options{Weights: WeightSum})
	if err != nil {
		t.Fatal(err)
	}
	if w := sum.Graph.EdgeWeight(0, 1); w != 2 {
		t.Fatalf("WeightSum: weight %d, want 2", w)
	}
	weighted := []byte("1 2 5\n2 1 5\n2 3 7\n")
	unit, err := LoadBytes("t.txt", weighted, Options{Weights: WeightUnit})
	if err != nil {
		t.Fatal(err)
	}
	if w := unit.Graph.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("WeightUnit: weight %d, want 1", w)
	}
	wauto, err := LoadBytes("t.txt", weighted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := wauto.Graph.EdgeWeight(0, 1); w != 10 {
		t.Fatalf("WeightAuto on weighted input: weight %d, want 10", w)
	}
}

// TestParseWeights: the weight-mode names mapd and mapingest accept,
// spelled exactly, and the error every other name gets.
func TestParseWeights(t *testing.T) {
	cases := []struct {
		in      string
		want    WeightMode
		wantErr string
	}{
		{"", WeightAuto, ""},
		{"auto", WeightAuto, ""},
		{"sum", WeightSum, ""},
		{"unit", WeightUnit, ""},
		{"Sum", WeightAuto, `ingest: unknown weights mode "Sum" (want auto, sum or unit)`},
		{" unit", WeightAuto, `ingest: unknown weights mode " unit" (want auto, sum or unit)`},
		{"max", WeightAuto, `ingest: unknown weights mode "max" (want auto, sum or unit)`},
	}
	for _, tc := range cases {
		got, err := ParseWeights(tc.in)
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		if got != tc.want || errText != tc.wantErr {
			t.Errorf("ParseWeights(%q) = %v, %q; want %v, %q", tc.in, got, errText, tc.want, tc.wantErr)
		}
	}
}

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		name   string
		prefix string
		want   Format
	}{
		{"x.mtx", "", FormatMatrixMarket},
		{"x.graph", "7 11", FormatMETIS},
		{"x.metis", "", FormatMETIS},
		{"x.txt", "# SNAP", FormatSNAP},
		{"x.edges", "0 1", FormatSNAP},
		{"", "%%MatrixMarket matrix", FormatMatrixMarket},
		{"noext", "", FormatSNAP},
	}
	for _, tc := range cases {
		if got := DetectFormat(tc.name, []byte(tc.prefix)); got != tc.want {
			t.Errorf("DetectFormat(%q, %q) = %v, want %v", tc.name, tc.prefix, got, tc.want)
		}
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name   string
		format Format
		in     string
	}{
		{"snap garbage", FormatSNAP, "hello world\n"},
		{"snap negative id", FormatSNAP, "-1 2\n"},
		{"snap bad weight", FormatSNAP, "1 2 0\n"},
		{"snap trailing field", FormatSNAP, "1 2 3 4\n"},
		{"mm not matrix", FormatMatrixMarket, "%%MatrixMarket tensor coordinate real general\n1 1 0\n"},
		{"mm array", FormatMatrixMarket, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"},
		{"mm nonsquare", FormatMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n"},
		{"mm nnz mismatch", FormatMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n"},
		{"mm out of range", FormatMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 9\n"},
		{"mm huge header", FormatMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n999999999 999999999 1\n1 2\n"},
		{"metis truncated", FormatMETIS, "3 2\n2\n"},
		{"metis bad neighbor", FormatMETIS, "2 1\n2\nx\n"},
		{"metis huge header", FormatMETIS, "999999999 1\n"},
		{"metis bad code", FormatMETIS, "2 1 7\n2\n1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadBytes("in", []byte(tc.in), Options{Format: tc.format}); err == nil {
				t.Fatalf("accepted malformed input")
			}
		})
	}
}

// writeSyntheticSNAP renders a deterministic edge list with avg degree
// ~2*out, single direction, contiguous ids — big enough that the CSR
// dominates the loader's fixed-size buffers.
func writeSyntheticSNAP(t testing.TB, n, out int) (string, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var sb strings.Builder
	sb.Grow(n * out * 12)
	seen := make(map[[2]int]bool, n*out)
	edges := 0
	for v := 1; v < n; v++ {
		// Ring edge keeps it connected; the rest are random.
		targets := append([]int{v - 1}, 0)
		targets = targets[:1]
		for k := 0; k < out; k++ {
			targets = append(targets, rng.Intn(n))
		}
		for _, u := range targets {
			if u == v {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			fmt.Fprintf(&sb, "%d\t%d\n", v, u)
			edges++
		}
	}
	path := filepath.Join(t.TempDir(), "synthetic.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, edges
}

// TestLoadFootprint pins the streaming loader's memory contract: total
// allocation during a load stays within ~1.3x of the final CSR
// footprint (no intermediate edge slice), and the arithmetic PeakBytes
// model brackets the same quantity.
func TestLoadFootprint(t *testing.T) {
	path, _ := writeSyntheticSNAP(t, 4000, 20)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := LoadFile(path, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	csr := res.Graph.FootprintBytes()
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	// Fixed slack absorbs the runtime's own background allocation noise
	// on a fixture this size; the 1.3x factor is the contract.
	limit := csr*13/10 + 256<<10
	t.Logf("CSR %d bytes, allocated %d bytes (%.2fx), peak model %d bytes",
		csr, allocated, float64(allocated)/float64(csr), res.Stats.PeakBytes)
	if allocated > limit {
		t.Fatalf("loader allocated %d bytes for a %d-byte CSR (%.2fx > 1.3x + slack)",
			allocated, csr, float64(allocated)/float64(csr))
	}
	if res.Stats.PeakBytes < csr {
		t.Fatalf("PeakBytes model %d below the CSR footprint %d", res.Stats.PeakBytes, csr)
	}
	if res.Stats.PeakBytes > csr*3/2 {
		t.Fatalf("PeakBytes model %d exceeds 1.5x CSR footprint %d — the streaming claim is off", res.Stats.PeakBytes, csr)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSyntheticParallelMatchesSequential runs the chunked fill on a
// multi-chunk input and checks it against the sequential load.
func TestLoadSyntheticParallelMatchesSequential(t *testing.T) {
	path, edges := writeSyntheticSNAP(t, 2000, 10)
	seq := mustLoadFile(t, path, Options{Workers: 1})
	par := mustLoadFile(t, path, Options{Workers: 8})
	if seq.Fingerprint != par.Fingerprint {
		t.Fatalf("parallel fill diverged from sequential")
	}
	if seq.Graph.M() != edges {
		t.Fatalf("M = %d, want %d", seq.Graph.M(), edges)
	}
}
