//go:build unix

package record

import (
	"os"
	"syscall"
)

// mmapSupported reports whether this platform has a real mmap; without it
// loadLog reads the whole file with os.ReadFile instead.
const mmapSupported = true

// mmapFile maps size bytes of f read-only. The returned release func must be
// called exactly once; the mapping is invalid afterwards.
func mmapFile(f *os.File, size int64) ([]byte, func(), error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, syscall.EINVAL
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() { syscall.Munmap(data) }, nil
}
