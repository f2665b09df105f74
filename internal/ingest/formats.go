package ingest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"
)

// Format identifies an input graph file format.
type Format int

const (
	// FormatAuto detects the format from the file name and a content
	// sniff (the Matrix Market magic line, comment style).
	FormatAuto Format = iota
	// FormatSNAP is the SNAP/edge-list format: one whitespace-separated
	// "u v [w]" entry per line, '#' (or '%') comment lines, arbitrary
	// non-contiguous vertex ids.
	FormatSNAP
	// FormatMatrixMarket is "%%MatrixMarket matrix coordinate
	// pattern|integer|real general|symmetric": a square sparse matrix
	// read as an undirected graph, 1-based indices.
	FormatMatrixMarket
	// FormatMETIS is the METIS/Chaco adjacency format also read by
	// graph.ReadMETIS, routed through the loader's normalizer (so
	// self-loops and duplicate entries are dropped/merged rather than
	// rejected).
	FormatMETIS
)

// String names the format as ParseFormat accepts it.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatSNAP:
		return "snap"
	case FormatMatrixMarket:
		return "matrixmarket"
	case FormatMETIS:
		return "metis"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat resolves a format name (case-insensitive).
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return FormatAuto, nil
	case "snap", "edgelist", "edges", "el", "txt":
		return FormatSNAP, nil
	case "matrixmarket", "mm", "mtx":
		return FormatMatrixMarket, nil
	case "metis", "chaco", "graph":
		return FormatMETIS, nil
	default:
		return FormatAuto, fmt.Errorf("ingest: unknown format %q (want auto, snap, matrixmarket or metis)", s)
	}
}

// DetectFormat picks a format from the file name's extension and the
// first bytes of content. The Matrix Market magic line always wins;
// METIS is only chosen by extension (.graph/.metis), because its header
// line is indistinguishable from an edge-list entry; everything else
// defaults to SNAP/edge-list, the least structured of the three.
func DetectFormat(name string, prefix []byte) Format {
	if len(prefix) >= len(mmMagic) && strings.EqualFold(string(prefix[:len(mmMagic)]), mmMagic) {
		return FormatMatrixMarket
	}
	switch strings.ToLower(filepath.Ext(name)) {
	case ".mtx", ".mm":
		return FormatMatrixMarket
	case ".graph", ".metis", ".chaco":
		return FormatMETIS
	}
	return FormatSNAP
}

// maxLineBytes bounds a single input line (matching graph.ReadMETIS's
// scanner cap): beyond it the input is rejected rather than buffered
// without bound.
const maxLineBytes = 1 << 26

// lineReader iterates the lines of a stream while tracking the byte
// offset of the next unread line — the loader's chunked fill pass needs
// that offset to know where a format's header ends and chunkable edge
// entries begin.
type lineReader struct {
	r    *bufio.Reader
	off  int64  // offset of the next unread byte
	long []byte // spill buffer for lines exceeding the bufio buffer
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next line without its trailing newline, or io.EOF.
// The returned slice is only valid until the following call.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err == nil || (err == io.EOF && len(line) > 0) {
		lr.off += int64(len(line))
		return trimEOL(line), nil
	}
	if err == bufio.ErrBufferFull {
		// Spill into an owned buffer until the newline (or the cap).
		lr.long = append(lr.long[:0], line...)
		for {
			line, err = lr.r.ReadSlice('\n')
			lr.long = append(lr.long, line...)
			if len(lr.long) > maxLineBytes {
				return nil, fmt.Errorf("ingest: line longer than %d bytes", maxLineBytes)
			}
			if err == nil || (err == io.EOF && len(line) > 0) {
				lr.off += int64(len(lr.long))
				return trimEOL(lr.long), nil
			}
			if err != bufio.ErrBufferFull {
				return nil, err
			}
		}
	}
	return nil, err
}

func trimEOL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// nextInt parses the next whitespace-delimited base-10 integer of b
// starting at index i without allocating. It returns the value, the
// index just past the token, and whether a well-formed integer was
// found.
func nextInt(b []byte, i int) (int64, int, bool) {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	if i >= len(b) {
		return 0, i, false
	}
	neg := false
	if b[i] == '-' || b[i] == '+' {
		neg = b[i] == '-'
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := int64(b[i] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, i, false // overflow
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, i, false
	}
	if i < len(b) && b[i] != ' ' && b[i] != '\t' {
		return 0, i, false // trailing garbage glued to the number
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// nextToken returns the next whitespace-delimited token of b starting
// at i (for float fields, which fall back to strconv).
func nextToken(b []byte, i int) ([]byte, int) {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	start := i
	for i < len(b) && b[i] != ' ' && b[i] != '\t' {
		i++
	}
	return b[start:i], i
}

// restBlank reports whether b from index i on is only whitespace.
func restBlank(b []byte, i int) bool {
	for ; i < len(b); i++ {
		if b[i] != ' ' && b[i] != '\t' {
			return false
		}
	}
	return true
}

func isBlank(b []byte) bool { return restBlank(b, 0) }

// hooks receives the parse events of one scan pass.
type hooks struct {
	// header is called once with the declared vertex count, before any
	// edge, for formats that declare one (Matrix Market, METIS). Absent
	// for SNAP, whose vertex set is discovered from the edges.
	header func(n int64) error
	// edge is called for every edge entry in input order, self-loops
	// included (the loader counts and drops them). hasW marks an
	// explicit weight in the input (drives WeightAuto).
	edge func(u, v, w int64, hasW bool) error
	// vweight is called for explicit vertex weights (METIS only), after
	// header, interleaved with edges. Nil skips them.
	vweight func(v, w int64) error
}

// format is one input syntax. A format value is created per load and
// may carry state from the full scan (pass 1) into the chunked entry
// parser (pass 2).
type format interface {
	name() string
	// scan parses the whole stream, emitting events into h. It returns
	// the byte offset where chunkable edge entries begin (dataOffset),
	// meaningful only when chunkable() is true.
	scan(r io.Reader, h hooks) (dataOffset int64, err error)
	// chunkable reports whether the fill pass may parse byte ranges of
	// the input concurrently with parseEntry.
	chunkable() bool
	// parseEntry parses one data line (at or after dataOffset) into an
	// edge entry; skip is true for comment/blank lines.
	parseEntry(line []byte) (u, v, w int64, hasW, skip bool, err error)
}

func formatFor(f Format) (format, error) {
	switch f {
	case FormatSNAP:
		return &snapFormat{}, nil
	case FormatMatrixMarket:
		return &mmFormat{}, nil
	case FormatMETIS:
		return &metisFormat{}, nil
	default:
		return nil, fmt.Errorf("ingest: no parser for format %v", f)
	}
}

// --- SNAP / edge list ---

type snapFormat struct{}

func (*snapFormat) name() string    { return "snap" }
func (*snapFormat) chunkable() bool { return true }

func (f *snapFormat) parseEntry(line []byte) (u, v, w int64, hasW, skip bool, err error) {
	if len(line) == 0 || line[0] == '#' || line[0] == '%' || isBlank(line) {
		return 0, 0, 0, false, true, nil
	}
	var ok bool
	var i int
	if u, i, ok = nextInt(line, 0); !ok {
		return 0, 0, 0, false, false, fmt.Errorf("ingest: malformed edge line %q", clip(line))
	}
	if v, i, ok = nextInt(line, i); !ok {
		return 0, 0, 0, false, false, fmt.Errorf("ingest: malformed edge line %q", clip(line))
	}
	w = 1
	if !restBlank(line, i) {
		if w, i, ok = nextInt(line, i); !ok || !restBlank(line, i) {
			return 0, 0, 0, false, false, fmt.Errorf("ingest: malformed edge line %q", clip(line))
		}
		if w <= 0 {
			return 0, 0, 0, false, false, fmt.Errorf("ingest: non-positive edge weight in line %q", clip(line))
		}
		hasW = true
	}
	if u < 0 || v < 0 {
		return 0, 0, 0, false, false, fmt.Errorf("ingest: negative vertex id in line %q", clip(line))
	}
	return u, v, w, hasW, false, nil
}

func (f *snapFormat) scan(r io.Reader, h hooks) (int64, error) {
	lr := newLineReader(r)
	for {
		line, err := lr.next()
		if err == io.EOF {
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		u, v, w, hasW, skip, err := f.parseEntry(line)
		if err != nil {
			return 0, err
		}
		if skip {
			continue
		}
		if err := h.edge(u, v, w, hasW); err != nil {
			return 0, err
		}
	}
}

// --- Matrix Market coordinate ---

const mmMagic = "%%MatrixMarket"

type mmField int

const (
	mmPattern mmField = iota
	mmInteger
	mmReal
)

type mmFormat struct {
	field mmField
	n     int64 // declared dimension
	nnz   int64 // declared entry count
}

func (*mmFormat) name() string    { return "matrixmarket" }
func (*mmFormat) chunkable() bool { return true }

func (f *mmFormat) parseEntry(line []byte) (u, v, w int64, hasW, skip bool, err error) {
	if len(line) == 0 || line[0] == '%' || isBlank(line) {
		return 0, 0, 0, false, true, nil
	}
	var ok bool
	var i int
	if u, i, ok = nextInt(line, 0); !ok {
		return 0, 0, 0, false, false, fmt.Errorf("ingest: malformed matrix entry %q", clip(line))
	}
	if v, i, ok = nextInt(line, i); !ok {
		return 0, 0, 0, false, false, fmt.Errorf("ingest: malformed matrix entry %q", clip(line))
	}
	if u < 1 || u > f.n || v < 1 || v > f.n {
		return 0, 0, 0, false, false, fmt.Errorf("ingest: matrix entry (%d,%d) outside declared %dx%d", u, v, f.n, f.n)
	}
	w = 1
	switch f.field {
	case mmPattern:
		if !restBlank(line, i) {
			return 0, 0, 0, false, false, fmt.Errorf("ingest: pattern entry %q carries a value", clip(line))
		}
	case mmInteger:
		var ok bool
		if w, i, ok = nextInt(line, i); !ok || !restBlank(line, i) {
			return 0, 0, 0, false, false, fmt.Errorf("ingest: malformed integer entry %q", clip(line))
		}
		w = absWeight(float64(w))
		hasW = true
	case mmReal:
		tok, j := nextToken(line, i)
		if len(tok) == 0 || !restBlank(line, j) {
			return 0, 0, 0, false, false, fmt.Errorf("ingest: malformed real entry %q", clip(line))
		}
		x, perr := strconv.ParseFloat(string(tok), 64)
		if perr != nil {
			return 0, 0, 0, false, false, fmt.Errorf("ingest: bad real value %q", string(tok))
		}
		w = absWeight(x)
		hasW = true
	}
	// 1-based matrix indices become 0-based vertex ids.
	return u - 1, v - 1, w, hasW, false, nil
}

// absWeight maps a (possibly negative, fractional or huge) matrix value
// onto the positive integer edge weights of graph.Graph: magnitude,
// rounded, floored at 1 so every stored entry stays an edge.
func absWeight(x float64) int64 {
	x = math.Abs(x)
	if math.IsNaN(x) || x < 1 {
		return 1
	}
	if x >= math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(math.Round(x))
}

func (f *mmFormat) scan(r io.Reader, h hooks) (int64, error) {
	lr := newLineReader(r)
	head, err := lr.next()
	if err != nil {
		return 0, fmt.Errorf("ingest: empty MatrixMarket input")
	}
	fields := strings.Fields(string(head))
	if len(fields) < 4 || !strings.EqualFold(fields[0], mmMagic) || !strings.EqualFold(fields[1], "matrix") {
		return 0, fmt.Errorf("ingest: not a MatrixMarket matrix header: %q", clip(head))
	}
	if !strings.EqualFold(fields[2], "coordinate") {
		return 0, fmt.Errorf("ingest: unsupported MatrixMarket layout %q (only coordinate)", fields[2])
	}
	switch strings.ToLower(fields[3]) {
	case "pattern":
		f.field = mmPattern
	case "integer":
		f.field = mmInteger
	case "real":
		f.field = mmReal
	default:
		return 0, fmt.Errorf("ingest: unsupported MatrixMarket field %q (want pattern, integer or real)", fields[3])
	}
	if len(fields) >= 5 {
		switch strings.ToLower(fields[4]) {
		case "general", "symmetric":
			// Both read identically: every off-diagonal entry is one
			// undirected edge, and a general matrix listing both (i,j) and
			// (j,i) merges them in the normalizer.
		default:
			return 0, fmt.Errorf("ingest: unsupported MatrixMarket symmetry %q (want general or symmetric)", fields[4])
		}
	}
	// Size line: first non-comment, non-blank line.
	var size []byte
	for {
		size, err = lr.next()
		if err != nil {
			return 0, fmt.Errorf("ingest: missing MatrixMarket size line")
		}
		if len(size) > 0 && size[0] != '%' && !isBlank(size) {
			break
		}
	}
	rows, i, ok := nextInt(size, 0)
	if !ok {
		return 0, fmt.Errorf("ingest: malformed size line %q", clip(size))
	}
	cols, i, ok := nextInt(size, i)
	if !ok {
		return 0, fmt.Errorf("ingest: malformed size line %q", clip(size))
	}
	nnz, i, ok := nextInt(size, i)
	if !ok || !restBlank(size, i) {
		return 0, fmt.Errorf("ingest: malformed size line %q", clip(size))
	}
	if rows != cols {
		return 0, fmt.Errorf("ingest: matrix is %dx%d; undirected graphs need a square matrix", rows, cols)
	}
	if rows < 0 || nnz < 0 {
		return 0, fmt.Errorf("ingest: negative size in %q", clip(size))
	}
	f.n, f.nnz = rows, nnz
	if err := h.header(rows); err != nil {
		return 0, err
	}
	dataOffset := lr.off
	var entries int64
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		u, v, w, hasW, skip, err := f.parseEntry(line)
		if err != nil {
			return 0, err
		}
		if skip {
			continue
		}
		entries++
		if err := h.edge(u, v, w, hasW); err != nil {
			return 0, err
		}
	}
	if entries != nnz {
		return 0, fmt.Errorf("ingest: header declares %d entries, found %d", nnz, entries)
	}
	return dataOffset, nil
}

// --- METIS / Chaco ---

type metisFormat struct {
	n, m  int64
	hasVW bool
	hasEW bool
}

func (*metisFormat) name() string    { return "metis" }
func (*metisFormat) chunkable() bool { return false } // lines are vertex-indexed

func (*metisFormat) parseEntry([]byte) (int64, int64, int64, bool, bool, error) {
	return 0, 0, 0, false, false, fmt.Errorf("ingest: METIS input is not chunkable")
}

func (f *metisFormat) scan(r io.Reader, h hooks) (int64, error) {
	lr := newLineReader(r)
	// Header: first line that is neither blank nor a comment.
	var head []byte
	var err error
	for {
		head, err = lr.next()
		if err != nil {
			return 0, fmt.Errorf("ingest: empty METIS input")
		}
		if len(head) > 0 && head[0] != '%' && head[0] != '#' && !isBlank(head) {
			break
		}
	}
	n, i, ok := nextInt(head, 0)
	if !ok || n < 0 {
		return 0, fmt.Errorf("ingest: malformed METIS header %q", clip(head))
	}
	m, i, ok := nextInt(head, i)
	if !ok || m < 0 {
		return 0, fmt.Errorf("ingest: malformed METIS header %q", clip(head))
	}
	f.n, f.m = n, m
	if !restBlank(head, i) {
		code, j, ok := nextInt(head, i)
		if !ok || !restBlank(head, j) {
			return 0, fmt.Errorf("ingest: malformed METIS header %q", clip(head))
		}
		switch code {
		case 0:
			// no weights
		case 1:
			f.hasEW = true
		case 10:
			f.hasVW = true
		case 11:
			f.hasVW, f.hasEW = true, true
		default:
			return 0, fmt.Errorf("ingest: unsupported METIS format code %d", code)
		}
	}
	if err := h.header(n); err != nil {
		return 0, err
	}
	for v := int64(0); v < n; v++ {
		// Blank lines are isolated vertices; only comments are skipped.
		var line []byte
		for {
			line, err = lr.next()
			if err == io.EOF {
				return 0, fmt.Errorf("ingest: missing adjacency line for vertex %d", v+1)
			}
			if err != nil {
				return 0, err
			}
			if len(line) > 0 && (line[0] == '%' || line[0] == '#') {
				continue
			}
			break
		}
		i := 0
		if f.hasVW {
			w, j, ok := nextInt(line, i)
			if !ok || w < 0 {
				return 0, fmt.Errorf("ingest: vertex %d: bad vertex weight in %q", v+1, clip(line))
			}
			i = j
			if h.vweight != nil {
				if err := h.vweight(v, w); err != nil {
					return 0, err
				}
			}
		}
		for !restBlank(line, i) {
			u, j, ok := nextInt(line, i)
			if !ok || u < 1 || u > n {
				return 0, fmt.Errorf("ingest: vertex %d: bad neighbor in %q", v+1, clip(line))
			}
			i = j
			var w int64 = 1
			if f.hasEW {
				w, j, ok = nextInt(line, i)
				if !ok || w <= 0 {
					return 0, fmt.Errorf("ingest: vertex %d: bad edge weight in %q", v+1, clip(line))
				}
				i = j
			}
			// Each undirected edge appears in both endpoints' lines; emit it
			// once (from the smaller endpoint) so the loader does not see it
			// doubled. Self-loop entries appear once and are emitted for the
			// normalizer to count and drop.
			if u-1 >= v {
				if err := h.edge(v, u-1, w, f.hasEW); err != nil {
					return 0, err
				}
			}
		}
	}
	return 0, nil
}

// clip bounds an input excerpt quoted in an error message.
func clip(b []byte) string {
	const max = 64
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
