package topology

import (
	"testing"
)

// TestDistanceTableMatchesDistance checks the materialized table
// against the per-pair Hamming evaluation on every generator family.
func TestDistanceTableMatchesDistance(t *testing.T) {
	build := []struct {
		name string
		mk   func() (*Topology, error)
	}{
		{"grid", func() (*Topology, error) { return Grid(4, 5) }},
		{"torus", func() (*Topology, error) { return Torus(6, 4) }},
		{"hypercube", func() (*Topology, error) { return Hypercube(5) }},
		{"tree", func() (*Topology, error) { return Tree("t", []int{0, 0, 0, 1, 1, 2, 5}) }},
	}
	for _, tc := range build {
		topo, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if topo.PeekDistanceTable() != nil {
			t.Errorf("%s: peek built the table", tc.name)
		}
		dt := topo.DistanceTable()
		if dt == nil {
			t.Fatalf("%s: no distance table for %d PEs", tc.name, topo.P())
		}
		if dt != topo.DistanceTable() || dt != topo.PeekDistanceTable() {
			t.Errorf("%s: table not cached/peekable", tc.name)
		}
		for u := 0; u < topo.P(); u++ {
			row := dt.Row(u)
			for v := 0; v < topo.P(); v++ {
				want := topo.Distance(u, v)
				if int(row[v]) != want {
					t.Fatalf("%s: d(%d,%d) = %d, want %d", tc.name, u, v, row[v], want)
				}
			}
		}
	}
}

// TestDistanceTableCap: topologies beyond the size cap must serve nil
// (consumers fall back to Hamming) rather than materialize gigabytes.
func TestDistanceTableCap(t *testing.T) {
	big, err := Hypercube(13) // 8192 PEs > maxDistanceTablePEs
	if err != nil {
		t.Fatal(err)
	}
	if dt := big.DistanceTable(); dt != nil {
		t.Fatalf("%d-PE topology materialized a table", big.P())
	}
	at, err := Hypercube(12) // exactly at the cap
	if err != nil {
		t.Fatal(err)
	}
	if dt := at.DistanceTable(); dt == nil {
		t.Fatalf("%d-PE topology (at the cap) has no table", at.P())
	}
}
