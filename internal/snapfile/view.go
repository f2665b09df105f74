package snapfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// This file holds the format's only unsafe code: reinterpreting byte
// sections as typed slices (and typed slices as byte sections) without
// copying. The reinterpretation is sound because every section starts
// 8-byte aligned — in the file layout and in the arena Open reads it
// into (a []uint64 reinterpreted) — and is only ever valid on
// little-endian hosts, which is what the format stores. Big-endian
// hosts take the copying encode/decode paths below, so the format
// itself stays portable.

// hostLittleEndian reports whether the running host stores integers
// little-endian (amd64, arm64, riscv64, ... — every platform this
// repository targets; the check keeps big-endian hosts correct rather
// than fast).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// AsBytes32 views xs as its little-endian byte representation.
// Zero-copy on little-endian hosts; an explicit encode elsewhere. The
// result aliases xs on the fast path and must not be modified.
func AsBytes32(xs []int32) []byte {
	if len(xs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*4)
	}
	out := make([]byte, len(xs)*4)
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return out
}

// AsBytes64 views xs as its little-endian byte representation.
// Zero-copy on little-endian hosts; an explicit encode elsewhere. The
// result aliases xs on the fast path and must not be modified.
func AsBytes64(xs []int64) []byte {
	if len(xs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
	}
	out := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// Int32s views a section as []int32. Zero-copy (aliasing b) on
// little-endian hosts, a copying decode elsewhere. Errors when the
// section length is not a multiple of 4.
func Int32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("snapfile: section length %d is not a whole number of int32s", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// Int64s views a section as []int64. Zero-copy (aliasing b) on
// little-endian hosts, a copying decode elsewhere. Errors when the
// section length is not a whole number of int64s.
func Int64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("snapfile: section length %d is not a whole number of int64s", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8), nil
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// readAligned reads the whole file with one ReadAt into an arena
// carved from a []uint64, so section views produced by Int32s/Int64s
// are correctly aligned.
func readAligned(f *os.File, size int64) ([]byte, error) {
	words := make([]uint64, size/8) // size%8 == 0 was checked by Open
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}
