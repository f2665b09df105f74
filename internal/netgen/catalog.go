package netgen

import (
	"fmt"

	"repro/internal/graph"
)

// NetworkSpec describes one of the paper's Table 1 instances and the
// synthetic model standing in for it.
type NetworkSpec struct {
	// Name is the paper's instance name.
	Name string
	// Type is the paper's description column.
	Type string
	// FullV and FullE are the vertex/edge counts reported in Table 1.
	FullV, FullE int
	// Model is the generator family used as the stand-in.
	Model Model
}

// Catalog returns the 15 complex networks of the paper's Table 1 in its
// order, each tagged with the synthetic model used to reproduce its
// shape (see DESIGN.md for the substitution rationale).
func Catalog() []NetworkSpec {
	return []NetworkSpec{
		{"p2p-Gnutella", "file-sharing network", 6405, 29215, RMAT},
		{"PGPgiantcompo", "largest connected component in network of PGP users", 10680, 24316, BA},
		{"email-EuAll", "network of connections via email", 16805, 60260, RMAT},
		{"as-22july06", "network of internet routers", 22963, 48436, BA},
		{"soc-Slashdot0902", "news network", 28550, 379445, RMAT},
		{"loc-brightkite_edges", "location-based friendship network", 56739, 212945, GEO},
		{"loc-gowalla_edges", "location-based friendship network", 196591, 950327, GEO},
		{"citationCiteseer", "citation network", 268495, 1156647, RMAT},
		{"coAuthorsCiteseer", "citation network", 227320, 814134, WS},
		{"wiki-Talk", "network of user interactions through edits", 232314, 1458806, RMAT},
		{"coAuthorsDBLP", "citation network", 299067, 977676, WS},
		{"web-Google", "hyperlink network of web pages", 356648, 2093324, RMAT},
		{"coPapersCiteseer", "citation network", 434102, 16036720, WS},
		{"coPapersDBLP", "citation network", 540486, 15245729, WS},
		{"as-skitter", "network of internet service providers", 554930, 5797663, BA},
	}
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (NetworkSpec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return NetworkSpec{}, fmt.Errorf("netgen: unknown network %q", name)
}

// Generate builds the stand-in instance at the given scale ∈ (0, 1]:
// vertex and edge targets are ScaledV and ScaledE, about FullV·scale and
// FullE·scale. Scale 1 reproduces Table 1's sizes; smaller scales let
// the whole suite run in CI time (the quotients the paper reports are
// size-relative, see DESIGN.md).
func (s NetworkSpec) Generate(scale float64, seed int64) *graph.Graph {
	return Generate(s.Model, s.ScaledV(scale), s.ScaledE(scale), seed)
}

// ScaledV returns the vertex-count target Generate uses at the given
// scale (clamps and the 64-vertex floor included), so callers like the
// bench matrix expansion can predict whether a scaled instance
// outsizes a topology without generating it. The realized count can
// come out slightly lower because Generate keeps only the largest
// connected component — decisions that must be exact need the
// generated graph's N.
func (s NetworkSpec) ScaledV(scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := int(float64(s.FullV) * scale)
	if n < 64 {
		n = 64
	}
	return n
}

// ScaledE returns the edge-count target Generate uses at the given
// scale: FullE·scale, but never fewer edges than ScaledV vertices.
func (s NetworkSpec) ScaledE(scale float64) int {
	n := s.ScaledV(scale)
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	m := int(float64(s.FullE) * scale)
	if m < n {
		m = n
	}
	return m
}

// SuiteOption configures the generated suite.
type SuiteOption struct {
	// Scale shrinks every instance (default 1.0 = paper size).
	Scale float64
	// Seed is the base seed; instance i uses Seed+i.
	Seed int64
}

// Instance is a generated network with its provenance.
type Instance struct {
	Spec NetworkSpec
	G    *graph.Graph
}

// GenerateSuite builds the Table 1 suite.
func GenerateSuite(opt SuiteOption) []Instance {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	var out []Instance
	for i, spec := range Catalog() {
		out = append(out, Instance{Spec: spec, G: spec.Generate(opt.Scale, opt.Seed+int64(i))})
	}
	return out
}
