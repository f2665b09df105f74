package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// decodeStrict decodes a job spec the way mapd and the router do:
// fields outside the schema are refused.
func decodeStrict(data []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzSpecHash checks spec canonicalization on arbitrary input that a
// server would accept: the spec hash survives decode → encode → decode
// (both through plain encoding, as a forwarding client re-sends a spec,
// and through the canonical JSON the ledger stores), and the canonical
// JSON never carries the retired timer_workers field.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeStrict(data)
		if err != nil {
			return
		}
		hash, ok := SpecHash(spec)
		if !ok {
			return
		}
		ds, _ := durableSpec(spec)
		canon, _, err := canonicalSpec(ds)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(canon, &keys); err != nil {
			t.Fatalf("canonical JSON does not parse: %v", err)
		}
		if _, ok := keys["timer_workers"]; ok {
			t.Fatalf("canonical JSON carries timer_workers: %s", canon)
		}
		plain, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string][]byte{"encoded": plain, "canonical": canon} {
			again, err := decodeStrict(body)
			if err != nil {
				t.Fatalf("%s spec does not decode: %v\n%s", name, err, body)
			}
			if h, ok := SpecHash(again); !ok || h != hash {
				t.Fatalf("%s round trip changed the spec hash: %s -> %s (ok=%v)\n%s", name, hash, h, ok, body)
			}
		}
	})
}
