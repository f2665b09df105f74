//go:build unix

package snapfile

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only and private. The mapping
// outlives the *os.File (POSIX mappings survive the descriptor's
// close), and — because the engine's writers replace files by rename,
// never truncate in place — the mapped inode can never shrink under a
// reader, so no SIGBUS window exists.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return nil, fmt.Errorf("snapfile: cannot map an empty file")
	}
	if size > math.MaxInt {
		return nil, fmt.Errorf("snapfile: %d bytes exceed the address space", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
}

// munmap releases a mapping made by mmapFile. Open calls it only for a
// file it rejects, before any section has been handed out.
func munmap(b []byte) { syscall.Munmap(b) }
