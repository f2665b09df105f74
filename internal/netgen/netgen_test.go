package netgen

import (
	"math"
	"testing"
)

func TestGenerateModels(t *testing.T) {
	for _, model := range []Model{RMAT, BA, WS, GEO} {
		g := Generate(model, 2000, 8000, 42)
		if !g.IsConnected() {
			t.Errorf("%s: not connected", model)
		}
		if g.N() < 1000 {
			t.Errorf("%s: only %d vertices survived (want ≥ 1000)", model, g.N())
		}
		if g.M() < g.N() {
			t.Errorf("%s: too sparse: n=%d m=%d", model, g.N(), g.M())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", model, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, model := range []Model{RMAT, BA, WS, GEO} {
		a := Generate(model, 500, 2000, 7)
		b := Generate(model, 500, 2000, 7)
		if a.N() != b.N() || a.M() != b.M() {
			t.Errorf("%s: same seed, different graph (%v vs %v)", model, a, b)
		}
		c := Generate(model, 500, 2000, 8)
		if a.N() == c.N() && a.M() == c.M() {
			// Sizes could coincide; compare an edge fingerprint.
			same := true
			for v := 0; v < a.N() && same; v++ {
				na, _ := a.Neighbors(v)
				nc, _ := c.Neighbors(v)
				if len(na) != len(nc) {
					same = false
					break
				}
				for i := range na {
					if na[i] != nc[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Errorf("%s: different seeds produced identical graphs", model)
			}
		}
	}
}

func TestSkewedDegreesForRMATAndBA(t *testing.T) {
	// Complex networks have heavy-tailed degrees: max degree should far
	// exceed the average.
	for _, model := range []Model{RMAT, BA} {
		g := Generate(model, 3000, 15000, 11)
		avg := float64(2*g.M()) / float64(g.N())
		if float64(g.MaxDegree()) < 4*avg {
			t.Errorf("%s: max degree %d not skewed vs avg %.1f", model, g.MaxDegree(), avg)
		}
	}
}

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 15 {
		t.Fatalf("catalog has %d entries, want 15", len(cat))
	}
	// Spot-check the paper's numbers.
	checks := map[string][2]int{
		"p2p-Gnutella":     {6405, 29215},
		"as-skitter":       {554930, 5797663},
		"coPapersDBLP":     {540486, 15245729},
		"wiki-Talk":        {232314, 1458806},
		"soc-Slashdot0902": {28550, 379445},
	}
	for _, s := range cat {
		if want, ok := checks[s.Name]; ok {
			if s.FullV != want[0] || s.FullE != want[1] {
				t.Errorf("%s: V,E = %d,%d; want %d,%d", s.Name, s.FullV, s.FullE, want[0], want[1])
			}
		}
	}
	if _, err := ByName("p2p-Gnutella"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("no-such-network"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestGenerateScaledShape(t *testing.T) {
	spec, _ := ByName("email-EuAll")
	g := spec.Generate(0.05, 3)
	// Should be within a factor ~2 of the scaled targets after largest-
	// component extraction.
	wantV := float64(spec.FullV) * 0.05
	if float64(g.N()) < 0.4*wantV || float64(g.N()) > 2.5*wantV {
		t.Errorf("scaled |V| = %d, want around %.0f", g.N(), wantV)
	}
	ratioFull := float64(spec.FullE) / float64(spec.FullV)
	ratioGen := float64(g.M()) / float64(g.N())
	if ratioGen < ratioFull/3 || ratioGen > ratioFull*3 {
		t.Errorf("density %.2f too far from the paper's %.2f", ratioGen, ratioFull)
	}
}

func TestGenerateSuite(t *testing.T) {
	suite := GenerateSuite(SuiteOption{Scale: 0.005, Seed: 5})
	cat := Catalog()
	if len(suite) != len(cat) {
		t.Fatalf("suite has %d networks, want %d", len(suite), len(cat))
	}
	for i, inst := range suite {
		if inst.Spec != cat[i] {
			t.Errorf("instance %d is %s, want %s (catalog order)", i, inst.Spec.Name, cat[i].Name)
		}
		if !inst.G.IsConnected() {
			t.Errorf("%s: disconnected", inst.Spec.Name)
		}
	}
}

func TestWSClusteringExceedsRMAT(t *testing.T) {
	// WS stands in for collaboration networks because of its clustering;
	// verify its mean local clustering coefficient beats RMAT's at equal
	// size (raw triangle counts would be dominated by RMAT's dense core).
	ws := Generate(WS, 1500, 6000, 13)
	rm := Generate(RMAT, 1500, 6000, 13)
	cws := meanClustering(ws)
	crm := meanClustering(rm)
	if cws <= crm {
		t.Errorf("WS clustering %.4f not above RMAT %.4f", cws, crm)
	}
	if math.IsNaN(cws) || math.IsNaN(crm) {
		t.Fatal("NaN clustering coefficient")
	}
}

// meanClustering is the average local clustering coefficient over
// vertices of degree ≥ 2.
func meanClustering(g interface {
	N() int
	Neighbors(int) ([]int32, []int64)
	HasEdge(int, int) bool
}) float64 {
	var sum float64
	count := 0
	for v := 0; v < g.N(); v++ {
		nbr, _ := g.Neighbors(v)
		d := len(nbr)
		if d < 2 {
			continue
		}
		tri := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(int(nbr[i]), int(nbr[j])) {
					tri++
				}
			}
		}
		sum += 2 * float64(tri) / float64(d*(d-1))
		count++
	}
	return sum / float64(count)
}
