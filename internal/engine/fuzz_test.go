package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// decodeStrict is the decoder DecodeSpec must match: encoding/json's,
// refusing fields outside the schema.
func decodeStrict(data []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzDecodeSpec checks DecodeSpec against decodeStrict, the decoder
// it stands in for: on any input both fail or both succeed, with the
// same error text, and return DeepEqual specs. The seeds are the
// ledger fixture's specs and the job bodies of the servers' decoding
// contract test, each marked with whether it takes the in-place path,
// so a DecodeSpec that always fell back could not pass unnoticed.
func FuzzDecodeSpec(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join(ledgerFixture, "spec-*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no fixture specs under %s (%v)", ledgerFixture, err)
	}
	for _, path := range seeds {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, seed := range []struct {
		in   string
		fast bool
	}{
		{`{"graph": {"n": 9, "edges": [[0,1,1], [1,2,1], [2,3,2]]}, "topology": "grid:2x2", "seed": 3}`, true},
		{`{"graph":{"network":"p2p-Gnutella","scale":0.05},"topology":"grid:2x2"}`, false},
		{`{"graph":{"edges":[[0,1,1]]},"topology":"grid:2x2","bogus":1}`, true},
		{`{"Graph":{"edges":[[0,1,1]]},"topology":"grid:2x2"}`, false},
		{`{"graph":{"EDGES":[[0,1,1]]},"topology":"grid:2x2"}`, false},
		{`{"graph":{"n":9},"graph":{"edges":[[0,1,1]]},"topology":"grid:2x2"}`, false},
		{`{"graph":{"edges":[[0,1,1]],"edges":[[1,2,1]]},"topology":"grid:2x2"}`, false},
		{`{"graph":{"\u0065dges":[[0,1,1]]},"topology":"grid:2x2"}`, false},
		{`{"graph":{"edgeſ":[[0,1,1]]},"topology":"grid:2x2"}`, false},
		{`{"graph":{"edges":[[0,1,1.5]]},"topology":"grid:2x2"}`, false},
		{`{"graph":{"edges":[[0,1,1]]},"topology":"grid:2x2","seed":"5"}`, true},
		{`{"graph":{"edges":[[0,1,1]]},"topology":"grid:2x2"} trailing bytes`, true},
		{`{"graph":{"edges":[[0,1,1]]},"topology":"grid:2x2"`, false},
		{`{"graph":{"ref":"x\"}, \"edges\": [[", "edges":[]}, "topology":["grid:2x2", {"a":"]"}]}`, true},
		{` {"graph" : { "edges" : [ ] , "n" : 0 } , "case" : "c4" }`, true},
		{``, false},
	} {
		if _, _, _, ok := locateEdges([]byte(seed.in)); ok != seed.fast {
			f.Errorf("locateEdges(%q) ok = %v, want %v", seed.in, ok, seed.fast)
		}
		f.Add([]byte(seed.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, errGot := DecodeSpec(data)
		want, errWant := decodeStrict(data)
		if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
			t.Fatalf("decode of %q: DecodeSpec err %v, reference err %v", data, errGot, errWant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode of %q: DecodeSpec %+v, reference %+v", data, got, want)
		}
	})
}

// FuzzSpecHash checks spec canonicalization on arbitrary input that a
// server would accept: MarshalSpec writes exactly json.Marshal's bytes
// (for the spec as decoded and for its durable reduction, the
// canonical JSON), into a slice whose capacity is its length; the spec
// hash survives decode → encode → decode (both through plain encoding,
// as a forwarding client re-sends a spec, and through the canonical
// JSON the ledger stores); and the canonical JSON never carries the
// retired timer_workers field.
func FuzzSpecHash(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join(ledgerFixture, "spec-*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no fixture specs under %s (%v)", ledgerFixture, err)
	}
	for _, path := range seeds {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"graph":{"network":"p2p-Gnutella","scale":0.05,"seed":11},"topology":"grid:4x4","case":"c3"}`))
	// Inline edges at the int64 bounds and zero; every GraphSpec field
	// set; strings that encoding/json escapes (HTML-significant bytes,
	// U+2028) or passes through (other non-ASCII).
	f.Add([]byte(`{"graph":{"edges":[[0,0,0],[-9223372036854775808,9223372036854775807,-1],[9223372036854775807,-9223372036854775808,0]]},"topology":"grid:2x2"}`))
	f.Add([]byte(`{"graph":{"ref":"upload:<a&b>","network":"PGPgiantcompo","scale":0.25,"seed":-3,"n":12,"edges":[[0,1,2],[1,2,3]]},` +
		`"topology":"torus:4x4","case":"c4","epsilon":0.05,"seed":9,"partition_seed":4,"num_hierarchies":8,"swap_rounds":2,"wide":true,"include_assignment":true}`))
	f.Add([]byte(`{"graph":{"ref":"file:/tmp/<x>&\u2028y","n":3,"edges":[[1,2,1]]},"topology":"grid:2x2"}`))
	f.Add([]byte(`{"graph":{"network":"graphé-网络-😀","edges":[]},"topology":"hypercube:3","case":"greedyallc"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := decodeStrict(data); err == nil {
			checkSpecEncoding(t, spec)
		}
	})
}

// checkSpecEncoding makes FuzzSpecHash's checks on one spec: for a spec
// with a hash, MarshalSpec's bytes and canonicalSpec's equal
// json.Marshal's, MarshalSpec's capacity is its length, both encodings
// decode back to the same hash, and the canonical JSON has no
// timer_workers field.
func checkSpecEncoding(t *testing.T, spec JobSpec) {
	t.Helper()
	hash, ok := SpecHash(spec)
	if !ok {
		return
	}
	ds, _ := durableSpec(spec)
	canon, _, err := canonicalSpec(ds)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := json.Marshal(ds); err != nil || !bytes.Equal(canon, want) {
		t.Fatalf("canonical JSON differs from json.Marshal (err %v):\n got %s\nwant %s", err, canon, want)
	}
	enc, err := MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != cap(enc) {
		t.Fatalf("MarshalSpec result has len %d, cap %d", len(enc), cap(enc))
	}
	if plain, err := json.Marshal(spec); err != nil || !bytes.Equal(enc, plain) {
		t.Fatalf("MarshalSpec differs from json.Marshal (err %v):\n got %s\nwant %s", err, enc, plain)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(canon, &keys); err != nil {
		t.Fatalf("canonical JSON does not parse: %v", err)
	}
	if _, ok := keys["timer_workers"]; ok {
		t.Fatalf("canonical JSON carries timer_workers: %s", canon)
	}
	for name, body := range map[string][]byte{"encoded": enc, "canonical": canon} {
		again, err := decodeStrict(body)
		if err != nil {
			t.Fatalf("%s spec does not decode: %v\n%s", name, err, body)
		}
		if h, ok := SpecHash(again); !ok || h != hash {
			t.Fatalf("%s round trip changed the spec hash: %s -> %s (ok=%v)\n%s", name, hash, h, ok, body)
		}
	}
}

// FuzzBatchSpec decodes arbitrary bytes as a batch the way mapd and the
// router do (fields outside the schema refused) and expands it with a
// 64-job limit. Expansion must not panic, an accepted batch expands to
// at most 64 specs, and every spec passes FuzzSpecHash's checks: its
// hash survives a JSON round trip and MarshalSpec writes json.Marshal's
// bytes.
func FuzzBatchSpec(f *testing.F) {
	f.Add([]byte(`{"graphs":[{"n":4,"edges":[[0,1,1],[1,2,2],[2,3,-9223372036854775808]]}],"topologies":["grid:2x2"],"reps":3,"seed":5}`))
	f.Add([]byte(`{"graphs":[{"ref":"upload:0123456789abcdef0123456789abcdef"}],"topologies":["grid:4x4","hypercube:3"],"case":"c4","shared_partition":true}`))
	f.Add([]byte(`{"graphs":[{"network":"p2p-Gnutella","scale":0.05}],"topologies":["grid:4x4"],"skip_too_small":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b BatchSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&b) != nil {
			return
		}
		specs, err := ExpandBatch(b, 64)
		if err != nil {
			return
		}
		if len(specs) > 64 {
			t.Fatalf("a 64-job limit expanded to %d specs", len(specs))
		}
		for _, spec := range specs {
			if _, ok := SpecHash(spec); !ok {
				t.Fatalf("expanded spec has no hash: %+v", spec)
			}
			checkSpecEncoding(t, spec)
		}
	})
}
