package jobstore

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// encodeRows are records whose encoding must equal json.Marshal's: the
// shapes the engine logs, and every way a field can make json.Marshal
// rewrite or reject it.
var encodeRows = []struct {
	name string
	r    Record
}{
	{"running", Record{Op: OpRunning, ID: "job-000001"}},
	{"submitted", Record{Op: OpSubmitted, ID: "job-000002", Hash: "ab12", Spec: specJSON(2)}},
	{"done", Record{Op: OpDone, ID: "job-000003", Hash: "ab12", Spec: specJSON(3), Result: resultJSON(3)}},
	{"failed", Record{Op: OpFailed, ID: "job-000004", Hash: "ab12", Spec: specJSON(4), Error: "engine: bad extent"}},
	{"edges", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage(`{"graph":{"edges":[[0,1,1],[1,2,-3]],"scale":0.25},"topology":"grid:8x8","wide":true,"x":null,"y":false}`)}},
	{"numbers", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`[0,-0,1.5,-2e10,3E+2,4e-07,0.0]`)}},
	{"empty containers", Record{Op: OpDone, ID: "j", Spec: json.RawMessage(`{}`), Result: json.RawMessage(`[[],{},""]`)}},
	{"string escapes", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`{"s":"a\"b\\c\/d\b\f\n\r\t` + "\u00e9\u2028" + `\uD834"}`)}},
	{"scalar", Record{Op: OpDone, ID: "j", Spec: json.RawMessage(`"grid"`), Result: json.RawMessage(`7`)}},
	{"spaced", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage(" {\"a\" : [1, 2]}\n")}},
	{"html in spec", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage(`{"note":"<b>&amp;</b>"}`)}},
	{"line separators", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage("{\"note\":\"a\u2028b\u2029c\"}")}},
	{"invalid utf-8 in spec", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage("{\"note\":\"\xff\xe2\x80\"}")}},
	{"escaped strings", Record{Op: "op\"\\", ID: "<id>&", Hash: "tab\there", Error: "\b\f\x01 \u00e9 \u2028 \xff"}},
	{"del", Record{Op: OpFailed, ID: "j", Error: "\x7f"}},
	{"truncated spec", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage(`{"a":`)}},
	{"trailing garbage", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage(`{}x`)}},
	{"two values", Record{Op: OpSubmitted, ID: "j", Spec: json.RawMessage(`1 2`)}},
	{"leading zero", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`[01]`)}},
	{"bare dot", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`1.`)}},
	{"bad exponent", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`1e+`)}},
	{"bad escape", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`"\x"`)}},
	{"short unicode escape", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`"\u12"`)}},
	{"control character", Record{Op: OpDone, ID: "j", Result: json.RawMessage("\"a\nb\"")}},
	{"trailing comma", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`{"a":1,}`)}},
	{"bad literal", Record{Op: OpDone, ID: "j", Result: json.RawMessage(`nul`)}},
	{"too deep", Record{Op: OpDone, ID: "j", Result: json.RawMessage(strings.Repeat("[", 10001) + strings.Repeat("]", 10001))}},
	{"deepest", Record{Op: OpDone, ID: "j", Result: json.RawMessage(strings.Repeat("[", 10000) + strings.Repeat("]", 10000))}},
}

// sameAsMarshal fails unless appendRecord encodes r as json.Marshal
// does: equal bytes, or equal error text.
func sameAsMarshal(t *testing.T, r Record) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, gotErr := appendRecord(nil, r)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("error %v, json.Marshal's %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded\n%q\njson.Marshal\n%q", got, want)
	}
}

func TestAppendRecordMatchesMarshal(t *testing.T) {
	for _, row := range encodeRows {
		t.Run(row.name, func(t *testing.T) { sameAsMarshal(t, row.r) })
	}
}

// TestAppendRecordCopiesCompactSpec: a compact spec is copied, not
// compacted through encoding/json, so a warm encode allocates nothing.
func TestAppendRecordCopiesCompactSpec(t *testing.T) {
	r := encodeRows[4].r
	buf := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := appendRecord(buf[:0], r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("encoding a compact spec allocates %.0f times, want 0", allocs)
	}
}

// FuzzAppendRecord checks appendRecord against json.Marshal on
// arbitrary field contents, Spec and Result included.
func FuzzAppendRecord(f *testing.F) {
	for _, row := range encodeRows {
		r := row.r
		f.Add(string(r.Op), r.ID, r.Hash, []byte(r.Spec), []byte(r.Result), r.Error)
	}
	f.Fuzz(func(t *testing.T, op, id, hash string, spec, result []byte, msg string) {
		sameAsMarshal(t, Record{Op: Op(op), ID: id, Hash: hash, Spec: spec, Result: result, Error: msg})
	})
}
