package ingest

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/graph"
)

// WeightMode selects how edge weights are derived when parallel input
// entries merge into one undirected edge.
type WeightMode int

const (
	// WeightAuto sums duplicate weights when the input carries explicit
	// weights, and collapses to unit weight 1 otherwise — so an
	// unweighted edge list that happens to list both directions of every
	// edge does not come out with all weights doubled.
	WeightAuto WeightMode = iota
	// WeightSum always sums (duplicate multiplicity becomes weight).
	WeightSum
	// WeightUnit always collapses to weight 1.
	WeightUnit
)

// ParseWeights resolves a weight-mode name: "auto" (or empty), "sum" or
// "unit", exactly as spelled.
func ParseWeights(s string) (WeightMode, error) {
	switch s {
	case "", "auto":
		return WeightAuto, nil
	case "sum":
		return WeightSum, nil
	case "unit":
		return WeightUnit, nil
	default:
		return WeightAuto, fmt.Errorf("ingest: unknown weights mode %q (want auto, sum or unit)", s)
	}
}

// Options tunes a load. The zero value is a sensible default: format
// auto-detection, automatic weight handling, parallel fill, safety caps
// scaled to the input size.
type Options struct {
	// Format forces an input format; FormatAuto detects it from the
	// name and content.
	Format Format
	// Weights controls duplicate-edge merging (see WeightMode).
	Weights WeightMode
	// LargestComponent keeps only the largest connected component
	// (recording the dropped vertex/component counts in Stats). The id
	// remap table then translates through the extraction.
	LargestComponent bool
	// Workers bounds the concurrent fill and normalize shards
	// (default GOMAXPROCS, capped at 8; 1 forces a sequential load).
	Workers int
	// MaxVertices and MaxEdges cap the instance size. Zero picks
	// defaults that also scale with the input size when it is known, so
	// a tiny malicious header cannot demand a multi-GB allocation.
	MaxVertices int
	MaxEdges    int64
}

const (
	defaultMaxVertices = 1 << 27
	defaultMaxEdges    = 1 << 30
)

func (o Options) withDefaults(size int64) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > 8 {
		o.Workers = 8
	}
	if o.MaxVertices <= 0 {
		o.MaxVertices = defaultMaxVertices
		if size >= 0 {
			// A legitimate input spends bytes on its vertices; a header
			// declaring vastly more than the input could describe is
			// rejected before it allocates. The floor keeps tiny real
			// inputs (and isolated-vertex-heavy Matrix Market files)
			// workable.
			if lim := size*8 + 1<<16; lim < int64(o.MaxVertices) {
				o.MaxVertices = int(lim)
			}
		}
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = defaultMaxEdges
	}
	return o
}

// Stats describes what one load saw and did.
type Stats struct {
	// Format is the resolved input format name.
	Format string `json:"format"`
	// Bytes is the input size (0 when unknown).
	Bytes int64 `json:"bytes"`
	// Entries counts edge entries parsed (before any normalization).
	Entries int64 `json:"entries"`
	// SelfLoops counts entries dropped as self-loops; MultiEdges counts
	// undirected parallel edges merged away (an unweighted edge list
	// that lists both directions reports MultiEdges == M).
	SelfLoops  int64 `json:"self_loops"`
	MultiEdges int64 `json:"multi_edges"`
	// ComponentsDropped/VerticesDropped describe the largest-component
	// extraction (zero unless Options.LargestComponent trimmed anything).
	ComponentsDropped int `json:"components_dropped,omitempty"`
	VerticesDropped   int `json:"vertices_dropped,omitempty"`
	// LoadSeconds is the wall time of the whole load; PeakBytes is the
	// loader's arithmetic peak-footprint model (raw CSR arrays + id
	// table + buffers), the number the bench harness reports as the
	// peak-RSS estimate.
	LoadSeconds float64 `json:"load_seconds"`
	PeakBytes   int64   `json:"peak_bytes"`
}

// Result is a loaded, normalized graph with its provenance.
type Result struct {
	Graph *graph.Graph
	// Remap translates CSR vertex ids back to the input's: Remap[v] is
	// the original id of vertex v (the file's arbitrary integer for
	// edge lists, the 1-based index for Matrix Market and METIS).
	Remap []int64
	// Fingerprint is the content hash of the loaded CSR — identical
	// across loads of identical bytes, the artifact-cache key material.
	Fingerprint graph.Fingerprint
	Stats       Stats
}

// LoadFile loads the named graph file. The file is opened once per
// pass; the chunked fill reads byte ranges of it concurrently.
func LoadFile(path string, opt Options) (*Result, error) {
	return LoadFileAs(path, path, opt)
}

// LoadFileAs loads the graph at path but attributes it to name: format
// auto-detection (extension-based) and error messages use name, not the
// on-disk path. This is the spooled-upload loader — the bytes sit in a
// temp file whose random name says nothing about their format, while
// the client-supplied filename does. An empty name disables extension
// detection: a Matrix Market header is still recognized, and anything
// else loads as an edge list.
func LoadFileAs(name, path string, opt Options) (*Result, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return nil, fmt.Errorf("ingest: %s is a directory", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src := source{
		name: name,
		size: fi.Size(),
		open: func() (io.ReadCloser, error) { return os.Open(path) },
		at:   f,
	}
	return timedLoad(src, opt)
}

func timedLoad(src source, opt Options) (*Result, error) {
	t0 := time.Now()
	res, err := load(src, opt)
	if err != nil {
		return nil, err
	}
	res.Stats.LoadSeconds = time.Since(t0).Seconds()
	return res, nil
}
