package topology

import "testing"

func TestParseSpecCanonical(t *testing.T) {
	cases := []struct {
		in, canon string
	}{
		{"grid:16x16", "grid:16x16"},
		{"GRID:16x16", "grid:16x16"},
		{" grid:16x16 ", "grid:16x16"},
		{"torus:8x8x8", "torus:8x8x8"},
		{"hypercube:8", "hypercube:8"},
		// Extent normalization: order and unit factors are immaterial.
		{"grid:4x8", "grid:8x4"},
		{"grid:8x4", "grid:8x4"},
		{"grid:16x16x1", "grid:16x16"},
		{"grid:1x1", "grid:1"},
		{"torus:4x8", "torus:8x4"},
		{"hq:8", "hypercube:8"},
		{"HQ:8", "hypercube:8"},
		// Paper names are aliases.
		{"grid16x16", "grid:16x16"},
		{"grid8x8x8", "grid:8x8x8"},
		{"torus16x16", "torus:16x16"},
		{"torus8x8x8", "torus:8x8x8"},
		{"8-dimHQ", "hypercube:8"},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := s.String(); got != c.canon {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.canon)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"", "grid", "grid:", "grid:16y16", "grid:0x4", "grid:-1x4",
		"donut:8x8", "hypercube:", "hypercube:-1", "hypercube:1x2",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestSpecBuildMatchesDirectConstruction(t *testing.T) {
	for _, c := range []struct {
		spec  string
		build func() (*Topology, error)
	}{
		{"grid:4x4", func() (*Topology, error) { return Grid(4, 4) }},
		{"torus:4x4", func() (*Topology, error) { return Torus(4, 4) }},
		{"hypercube:4", func() (*Topology, error) { return Hypercube(4) }},
	} {
		s, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		got, err := s.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", c.spec, err)
		}
		want, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if got.P() != want.P() || got.Dim != want.Dim {
			t.Errorf("%s: built P=%d dim=%d, direct P=%d dim=%d", c.spec, got.P(), got.Dim, want.P(), want.Dim)
		}
		if got.Name != c.spec {
			t.Errorf("%s: built name %q, want canonical spec", c.spec, got.Name)
		}
		for v := range want.Labels {
			if got.Labels[v] != want.Labels[v] {
				t.Fatalf("%s: label mismatch at vertex %d", c.spec, v)
			}
		}
	}
}

func TestSpecBuildInvalid(t *testing.T) {
	// Parses, but violates the torus evenness constraint at build time.
	s, err := ParseSpec("torus:5x5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Error("torus:5x5 built, want error (odd extents are not partial cubes)")
	}
}

func TestKnownSpecsBuild(t *testing.T) {
	specs := KnownSpecs()
	if len(specs) != 5 {
		t.Fatalf("KnownSpecs() has %d entries, want 5", len(specs))
	}
	for _, spec := range specs {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if s.String() != spec {
			t.Errorf("KnownSpecs entry %q is not canonical (re-canonicalizes to %q)", spec, s.String())
		}
	}
}
