package graph

import (
	"strings"
	"testing"
)

// buildCSR renders g's arrays as fresh slices, so tests can perturb them.
func buildCSR(g *Graph) (xadj, adj []int32, ew, vw []int64) {
	return append([]int32(nil), g.xadj...),
		append([]int32(nil), g.adj...),
		append([]int64(nil), g.ew...),
		append([]int64(nil), g.vw...)
}

func TestFromCSRRoundTrip(t *testing.T) {
	want := FromEdgeList(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	g, err := FromCSR(buildCSR(want))
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %v vs %v", g.Fingerprint(), want.Fingerprint())
	}
	if g.TotalEdgeWeight() != want.TotalEdgeWeight() || g.TotalVertexWeight() != want.TotalVertexWeight() {
		t.Fatalf("totals mismatch")
	}
}

func TestFromCSRRejectsMalformed(t *testing.T) {
	base := FromEdgeList(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	cases := []struct {
		name    string
		corrupt func(xadj, adj []int32, ew, vw []int64) ([]int32, []int32, []int64, []int64)
	}{
		{"short xadj", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			return x[:len(x)-1], a, e, v[:len(v)-1]
		}},
		{"nonzero origin", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			x[0] = 1
			return x, a, e, v
		}},
		{"self-loop", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			a[0] = 0 // vertex 0's first neighbor becomes itself
			return x, a, e, v
		}},
		{"out of range neighbor", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			a[0] = 99
			return x, a, e, v
		}},
		{"unsorted row", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			// vertex 1 has neighbors [0 2]; swapping breaks the order
			a[1], a[2] = a[2], a[1]
			return x, a, e, v
		}},
		{"offset past adjacency", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			// Row 0 runs to offset 100 over the two half-edges there are;
			// its in-range, increasing prefix must not be read past.
			return []int32{0, 100, 2, 2}, []int32{1, 2}, []int64{1, 1}, []int64{1, 1, 1}
		}},
		{"non-positive edge weight", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			e[0] = 0
			return x, a, e, v
		}},
		{"negative vertex weight", func(x, a []int32, e, v []int64) ([]int32, []int32, []int64, []int64) {
			v[2] = -1
			return x, a, e, v
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromCSR(tc.corrupt(buildCSR(base))); err == nil {
				t.Fatalf("FromCSR accepted %s", tc.name)
			}
		})
	}
}

func TestReadMETISReportsSelfLoop(t *testing.T) {
	// Vertex 2's adjacency names vertex 2 itself (1-based): previously the
	// u-1 > v guard skipped it silently and the reader failed later with a
	// misleading edge-count error.
	in := "3 3\n2 3\n1 2 3\n1 2\n"
	_, err := ReadMETIS(strings.NewReader(in))
	if err == nil {
		t.Fatalf("ReadMETIS accepted a self-loop")
	}
	if !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("error does not name the self-loop: %v", err)
	}
	if strings.Contains(err.Error(), "header claims") {
		t.Fatalf("still reporting the old edge-count mismatch: %v", err)
	}
}
