//go:build !unix

package record

import (
	"errors"
	"os"
)

// mmapSupported reports whether this platform has a real mmap; without it
// loadLog reads the whole file with os.ReadFile instead, which preserves
// behavior exactly at the cost of holding the file's bytes while reading.
const mmapSupported = false

func mmapFile(f *os.File, size int64) ([]byte, func(), error) {
	return nil, nil, errors.New("record: mmap unsupported on this platform")
}
