package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/netgen"
)

// FuzzEdgeList checks EdgeList against the decoder it stands in for:
// on any input, json.Unmarshal into EdgeList succeeds exactly when it
// succeeds into [][3]int64, the two values are DeepEqual, and both
// encode to the same bytes. The same holds for the list as an object
// field, where encoding/json hands UnmarshalJSON a null as well.
func FuzzEdgeList(f *testing.F) {
	// fast records whether the seed takes the reflection-free path, so a
	// parser that always fell back could not pass unnoticed.
	for _, seed := range []struct {
		in   string
		fast bool
	}{
		{`[[0,1,2],[1,2,1],[2,3,5]]`, true},
		{" [ [0 ,1,\t2] ,\n[1, 2,1]\r ] ", true},
		{`null`, false},
		{`[]`, true},
		{`[[0,1]]`, false},
		{`[[0,1,2,3]]`, false},
		{`[[1.0,2,3]]`, false},
		{`[[1e2,2,3]]`, false},
		{`[[-0,1,1]]`, true},
		{`[[-9223372036854775808,9223372036854775807,1]]`, true},
		{`[[9223372036854775808,1,1]]`, false},
		{`[["1",2,3]]`, false},
		{`[null]`, false},
	} {
		if _, ok := parseTriples([]byte(seed.in)); ok != seed.fast {
			f.Errorf("parseTriples(%q) ok = %v, want %v", seed.in, ok, seed.fast)
		}
		f.Add([]byte(seed.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got EdgeList
		var want [][3]int64
		errGot, errWant := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
		sameDecode(t, data, errGot, errWant, got, want)

		field := append(append([]byte(`{"edges":`), data...), '}')
		var gotObj struct {
			Edges EdgeList `json:"edges"`
		}
		var wantObj struct {
			Edges [][3]int64 `json:"edges"`
		}
		errGot, errWant = json.Unmarshal(field, &gotObj), json.Unmarshal(field, &wantObj)
		sameDecode(t, field, errGot, errWant, gotObj.Edges, wantObj.Edges)
	})
}

// sameDecode fails unless both decodes of data succeeded or both
// failed, and on success the values are DeepEqual and encode to the
// same bytes.
func sameDecode(t *testing.T, data []byte, errGot, errWant error, got EdgeList, want [][3]int64) {
	t.Helper()
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("decode of %q: EdgeList err %v, [][3]int64 err %v", data, errGot, errWant)
	}
	if errWant != nil {
		return
	}
	if !reflect.DeepEqual([][3]int64(got), want) {
		t.Fatalf("decode of %q: EdgeList %#v, [][3]int64 %#v", data, got, want)
	}
	encGot, err1 := json.Marshal(got)
	encWant, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil || !bytes.Equal(encGot, encWant) {
		t.Fatalf("encode after decoding %q: %s (%v) vs %s (%v)", data, encGot, err1, encWant, err2)
	}
}

// TestSpecHashInlineEdgesPinned pins the spec hash of an inline-edges
// job to the value computed before inline edges had their own decoder:
// the ledger dedups and the router routes on this hash, so changing the
// edge list's type must not change it.
func TestSpecHashInlineEdgesPinned(t *testing.T) {
	spec, err := decodeStrict([]byte(`{"graph": {"n": 6, "edges": [[0,1,2], [1,2,1], [2,3,5], [3,4,1], [4,5,3], [5,0,1]]},
		"topology": "grid:2x2", "case": "c3", "seed": 7, "num_hierarchies": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	const want = "e1719829b3e11ce14dd41ecbd71032d7"
	if got, ok := SpecHash(spec); !ok || got != want {
		t.Errorf("SpecHash = %q (ok=%v), want %q", got, ok, want)
	}
}

// BenchmarkEdgeListDecode decodes a 2,500-edge list (vertex IDs and
// weights of an inline job's size) reflectively as [][3]int64 and with
// EdgeList's parser.
func BenchmarkEdgeListDecode(b *testing.B) {
	edges := make([][3]int64, 2500)
	for i := range edges {
		edges[i] = [3]int64{int64(i % 1000), int64((i*7919 + 13) % 1000), int64(1 + i%4)}
	}
	data, err := json.Marshal(edges)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			var out [][3]int64
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EdgeList", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			var out EdgeList
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// serviceSizeSpec returns an inline job of the size the service
// benchmark sends: PGPgiantcompo at scale 0.1, 1,068 vertices and
// 2,133 edges.
func serviceSizeSpec(b *testing.B) JobSpec {
	ns, err := netgen.ByName("PGPgiantcompo")
	if err != nil {
		b.Fatal(err)
	}
	g := ns.Generate(0.1, 3)
	spec := JobSpec{Graph: GraphSpec{N: g.N()}, Topology: "grid:8x8", Case: C3GreedyAllC, Seed: 3}
	for u := 0; u < g.N(); u++ {
		nbr, ew := g.Neighbors(u)
		for i, v := range nbr {
			if int(v) > u {
				spec.Graph.Edges = append(spec.Graph.Edges, [3]int64{int64(u), int64(v), ew[i]})
			}
		}
	}
	return spec
}

// BenchmarkMarshalSpec encodes a service-size inline job with
// encoding/json and with MarshalSpec.
func BenchmarkMarshalSpec(b *testing.B) {
	spec := serviceSizeSpec(b)
	for _, bc := range []struct {
		name   string
		encode func(any) ([]byte, error)
	}{
		{"json.Marshal", json.Marshal},
		{"MarshalSpec", func(any) ([]byte, error) { return MarshalSpec(spec) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.encode(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeSpec decodes a service-size inline job's JSON with
// the servers' reference decoder and with DecodeSpec.
func BenchmarkDecodeSpec(b *testing.B) {
	body, err := MarshalSpec(serviceSizeSpec(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (JobSpec, error)
	}{{"reference", decodeStrict}, {"DecodeSpec", DecodeSpec}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
