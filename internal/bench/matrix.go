package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Smoke returns the canonical CI matrix: small generated networks over
// two 64-PE topologies with every mapper family represented, sized to
// finish well under a minute on a CI runner while still exercising the
// whole partition → map → enhance pipeline. Its quality metrics gate
// regressions against the committed BENCH_baseline.json.
//
// The extra cells run half-scale networks on much larger topologies
// (1024-PE grid, 256-PE torus) — rows the allocation-free base stage
// makes affordable in CI, covering the K ≫ 64 partitioning regime and
// the greedy mappers' O(P²) scans over a real distance table.
func Smoke() Spec {
	return Spec{
		Name:     "smoke",
		Networks: []string{"p2p-Gnutella", "PGPgiantcompo"},
		Scale:    0.25,
		Topologies: []string{
			"grid:8x8",
			"hypercube:6",
		},
		Cases: []string{"random", "identity", "greedyallc", "greedymin", "scotch"},
		ExtraCells: []Cell{
			{Network: "p2p-Gnutella", Scale: 0.5, Topology: "grid:32x32", Case: "greedymin"},
			{Network: "PGPgiantcompo", Scale: 0.5, Topology: "torus:16x16", Case: "scotch"},
		},
		Reps:           2,
		Seed:           1,
		NumHierarchies: 16,
	}
}

// SmokeShared returns the smoke matrix in shared-partition mode: the
// same scenario grid, but every repetition's cases compare on a single
// shared partition (the paper's experimental shape) served from the
// engine's artifact cache. CI runs it alongside the default smoke
// matrix to exercise the batch-level memoization path and track its
// throughput; its quality metrics legitimately differ from the default
// matrix's, so it is never gated against BENCH_baseline.json.
func SmokeShared() Spec {
	s := Smoke()
	s.Name = "smoke-shared"
	s.SharedPartition = true
	return s
}

// Paper returns the full paper-style matrix: the Table 1 network suite
// at full scale over the five Section 7 processor graphs, cases c1–c4,
// five repetitions, NH = 50. Running it reproduces the shape of the
// paper's Tables 2–3 and Figures 5a–5d as one machine-readable file
// (expect hours, not seconds).
func Paper() Spec {
	return Spec{
		Name: "paper",
		Networks: []string{
			"p2p-Gnutella", "PGPgiantcompo", "email-EuAll", "as-22july06",
			"soc-Slashdot0902", "loc-brightkite_edges", "loc-gowalla_edges",
			"citationCiteseer", "coAuthorsCiteseer", "wiki-Talk",
			"coAuthorsDBLP", "web-Google", "coPapersCiteseer",
			"coPapersDBLP", "as-skitter",
		},
		Scale: 1,
		Topologies: []string{
			"grid:16x16", "grid:8x8x8", "torus:16x16", "torus:8x8x8", "hypercube:8",
		},
		Cases:          []string{"scotch", "identity", "greedyallc", "greedymin"},
		Reps:           5,
		Seed:           1,
		NumHierarchies: 50,
	}
}

// Matrices lists the canonical matrices by name.
func Matrices() []Spec { return []Spec{Smoke(), SmokeShared(), Paper()} }

// LoadSpec reads a matrix spec from a JSON file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("bench: reading matrix: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("bench: parsing matrix %s: %w", path, err)
	}
	return s, nil
}
