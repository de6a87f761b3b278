// Package fsx provides crash-safe file primitives: atomic whole-file writes
// (temp file + rename in the destination directory) and a durable streaming
// file whose Close syncs before publishing. SHARP's records are its product
// (§IV-d: record distributions completely); a crash or interrupt must never
// leave a torn metadata file, half a report, or a truncated snapshot where a
// complete one used to be. Every os.WriteFile/os.Create site that publishes
// an artifact goes through this package.
//
// Guarantees (POSIX semantics):
//
//   - WriteFile/WriteTo: readers observe either the old complete content or
//     the new complete content, never a prefix. The temp file lives in the
//     destination directory so the final rename is same-filesystem.
//   - File (from Create): data is written to "<path>.tmp-<rand>"; Close
//     fsyncs and renames into place, Abort discards. A hard crash before
//     Close leaves the previous version of path untouched (at worst a stale
//     *.tmp-* file to garbage-collect).
package fsx

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data: the bytes are written to a
// temp file in path's directory, synced, and renamed over path. On error the
// temp file is removed and path is left untouched.
func WriteFile(path string, data []byte, perm fs.FileMode) error {
	return WriteTo(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteTo atomically replaces path with whatever fn streams into its writer.
// It is WriteFile for producers that render incrementally (metadata,
// reports) without materializing the full byte slice twice.
func WriteTo(path string, perm fs.FileMode, fn func(w io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	f.Chmod(perm)
	if err := fn(f); err != nil {
		f.Abort()
		return err
	}
	return f.Close()
}

// File is a crash-safe streaming file: writes go to a hidden temp file and
// only Close publishes it at the final path. It implements io.WriteCloser.
type File struct {
	f    *os.File
	path string // final destination
	perm fs.FileMode
	done bool
}

// Create opens a crash-safe file that will be published at path by Close.
// The temp file is created in path's directory (same filesystem, so the
// publishing rename is atomic) with mode 0o644.
func Create(path string) (*File, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("fsx: %w", err)
	}
	return &File{f: f, path: path, perm: 0o644}, nil
}

// Chmod sets the mode the published file will carry.
func (f *File) Chmod(perm fs.FileMode) { f.perm = perm }

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// Close syncs the temp file and atomically renames it to the destination.
// After Close (or Abort) the File is spent; further calls are no-ops.
func (f *File) Close() error {
	if f.done {
		return nil
	}
	f.done = true
	if err := f.f.Sync(); err != nil {
		f.f.Close()
		os.Remove(f.f.Name())
		return fmt.Errorf("fsx: sync: %w", err)
	}
	if err := f.f.Chmod(f.perm); err != nil {
		f.f.Close()
		os.Remove(f.f.Name())
		return fmt.Errorf("fsx: chmod: %w", err)
	}
	if err := f.f.Close(); err != nil {
		os.Remove(f.f.Name())
		return fmt.Errorf("fsx: close: %w", err)
	}
	if err := os.Rename(f.f.Name(), f.path); err != nil {
		os.Remove(f.f.Name())
		return fmt.Errorf("fsx: publish: %w", err)
	}
	syncDir(filepath.Dir(f.path))
	return nil
}

// Abort discards the temp file without publishing. Safe after Close (no-op).
func (f *File) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.f.Close()
	os.Remove(f.f.Name())
}

// syncDir best-effort fsyncs a directory so the rename itself is durable.
// Errors are ignored: not all filesystems support directory sync, and the
// rename's atomicity does not depend on it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
