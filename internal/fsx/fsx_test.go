package fsx

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempEntries returns the *.tmp-* leftovers in dir.
func tempEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmp []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			tmp = append(tmp, e.Name())
		}
	}
	return tmp
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("content %q", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o600 {
		t.Fatalf("mode %v, want 0600", st.Mode().Perm())
	}
	if tmp := tempEntries(t, dir); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

func TestWriteToFailureLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("render failed")
	err := WriteTo(path, 0o644, func(w io.Writer) error {
		io.WriteString(w, "half a repl") // partial render, then failure
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "keep me" {
		t.Fatalf("failed write clobbered destination: %q", got)
	}
	if tmp := tempEntries(t, dir); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

func TestCreatePublishesOnlyOnClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.jsonl")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != path {
		t.Fatalf("Name %q", f.Name())
	}
	if _, err := io.WriteString(f, "line 1\n"); err != nil {
		t.Fatal(err)
	}
	// Not published yet: a crash here leaves no file at path.
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("destination exists before Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "line 1\n" {
		t.Fatalf("content %q", got)
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "never.txt")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "discard")
	f.Abort()
	f.Abort() // idempotent
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted file published: %v", err)
	}
	if tmp := tempEntries(t, dir); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
	// Close after Abort is a spent no-op and must not publish either.
	if err := f.Close(); err != nil {
		t.Fatalf("Close after Abort: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Close after Abort published the file")
	}
}

// Name returns the final destination path (not the temp path).
func (f *File) Name() string { return f.path }
