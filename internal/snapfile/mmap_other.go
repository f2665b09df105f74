//go:build !unix

package snapfile

import (
	"fmt"
	"os"
)

// mmapFile is unavailable on this platform; Open falls back to one
// ReadFull into an aligned arena.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, fmt.Errorf("snapfile: mmap not supported on this platform")
}

// munmap has nothing to release on this platform.
func munmap(b []byte) {}
