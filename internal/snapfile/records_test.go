package snapfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const (
	testRecKind    = 0x7265_6301
	testRecVersion = 1
)

// writeTestSegment creates a segment with the given record bodies and
// returns its path.
func writeTestSegment(t *testing.T, bodies [][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.seg")
	w, err := CreateRecords(path, testRecKind, testRecVersion)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testBodies() [][]byte {
	return [][]byte{
		[]byte(`{"op":"submitted","id":"job-000001"}`),
		[]byte(``), // empty record: legal, must round-trip
		[]byte(`{"op":"done","id":"job-000001","result":{"coco":42}}`),
		bytes.Repeat([]byte{0xa5}, 1000), // forces padding on odd length? 1000%8==0; use 1001
		bytes.Repeat([]byte{0x5a}, 1001), // unaligned body exercises padding
	}
}

func TestRecordRoundTrip(t *testing.T) {
	bodies := testBodies()
	path := writeTestSegment(t, bodies)
	res, err := ScanRecords(path, testRecKind, testRecVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Tail != "" {
		t.Fatalf("clean segment scanned dirty: %+v", res)
	}
	if len(res.Records) != len(bodies) {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(bodies))
	}
	for i := range bodies {
		if !bytes.Equal(res.Records[i], bodies[i]) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != info.Size() {
		t.Fatalf("verified prefix %d bytes, file is %d", res.Bytes, info.Size())
	}
}

func TestRecordSegmentRejectsWrongIdentity(t *testing.T) {
	path := writeTestSegment(t, testBodies())
	if _, err := ScanRecords(path, testRecKind+1, testRecVersion); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := ScanRecords(path, testRecKind, testRecVersion+1); err == nil {
		t.Fatal("wrong kindVersion accepted")
	}
	if _, err := ScanRecords(filepath.Join(t.TempDir(), "absent.seg"), testRecKind, testRecVersion); err == nil {
		t.Fatal("absent segment accepted")
	}
}

// TestRecordScanTortureFlips flips every byte of a segment in turn and
// asserts the scan never panics, never returns a record that was not
// written, and always returns a prefix of the original records: a flip
// in the header fails the open, a flip in record k's frame recovers
// exactly records 0..k-1.
func TestRecordScanTortureFlips(t *testing.T) {
	bodies := testBodies()
	path := writeTestSegment(t, bodies)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: offset of each record's frame start.
	starts := make([]int64, len(bodies)+1)
	starts[0] = recHeaderSize
	for i, b := range bodies {
		starts[i+1] = starts[i] + frameHeaderSize + align8(int64(len(b)))
	}

	mut := filepath.Join(t.TempDir(), "mut.seg")
	for off := 0; off < len(orig); off++ {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x40
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := ScanRecords(mut, testRecKind, testRecVersion)
		if off < recHeaderSize {
			if err == nil {
				t.Fatalf("flip at header offset %d: corrupted header accepted", off)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip at offset %d: scan errored instead of prefixing: %v", off, err)
		}
		// The flip lives inside record k's frame; everything before must
		// survive, the flipped record and everything after must not.
		k := len(bodies) - 1
		for i := range bodies {
			if int64(off) < starts[i+1] {
				k = i
				break
			}
		}
		if res.Clean {
			t.Fatalf("flip at offset %d (record %d): scan reported clean", off, k)
		}
		if len(res.Records) != k {
			t.Fatalf("flip at offset %d (record %d): recovered %d records, want %d", off, k, len(res.Records), k)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(res.Records[i], bodies[i]) {
				t.Fatalf("flip at offset %d: surviving record %d corrupted", off, i)
			}
		}
	}
}

// TestRecordScanTortureTruncations truncates the segment at every
// length and asserts prefix recovery: a cut inside record k's frame
// recovers exactly records 0..k-1.
func TestRecordScanTortureTruncations(t *testing.T) {
	bodies := testBodies()
	path := writeTestSegment(t, bodies)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int64, len(bodies)+1)
	starts[0] = recHeaderSize
	for i, b := range bodies {
		starts[i+1] = starts[i] + frameHeaderSize + align8(int64(len(b)))
	}

	mut := filepath.Join(t.TempDir(), "cut.seg")
	for cut := 0; cut <= len(orig); cut++ {
		if err := os.WriteFile(mut, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := ScanRecords(mut, testRecKind, testRecVersion)
		if cut < recHeaderSize {
			if err == nil {
				t.Fatalf("cut at %d: headerless segment accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: scan errored instead of prefixing: %v", cut, err)
		}
		want := 0
		for i := range bodies {
			if starts[i+1] <= int64(cut) {
				want = i + 1
			}
		}
		if len(res.Records) != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(res.Records), want)
		}
		// A cut exactly on a frame boundary is indistinguishable from a
		// log that simply has fewer records — the scanner rightly calls it
		// clean. Any cut inside a frame must be flagged.
		wantClean := false
		for _, s := range starts {
			if int64(cut) == s {
				wantClean = true
			}
		}
		if res.Clean != wantClean {
			t.Fatalf("cut at %d: clean=%v, want %v", cut, res.Clean, wantClean)
		}
	}
}
