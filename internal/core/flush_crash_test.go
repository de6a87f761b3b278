package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"sharp/internal/record"
)

// abandoningSink forwards whole runs to a durable writer until keep runs are
// in, then writes the first half of the next run and fails: the process dies
// mid-run with the writer never closed.
type abandoningSink struct {
	w    *record.Writer
	keep int
}

func (s *abandoningSink) Write(r record.Row) error { return s.WriteAll([]record.Row{r}) }

func (s *abandoningSink) WriteAll(rows []record.Row) error {
	if s.keep == 0 {
		if err := s.w.WriteAll(rows[:len(rows)/2]); err != nil {
			return err
		}
		return errors.New("killed")
	}
	s.keep--
	return s.w.WriteAll(rows)
}

// dirBytes snapshots every file under dir by relative path.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRowSinkCrashResumeByteIdentity kills a campaign mid-run while its
// durable log takes one WriteAll per run at FlushEvery 1, then repairs the
// log (TruncateTrailingRun), reopens it (OpenAppend) and resumes: every
// file of the log must end byte-identical to an uninterrupted campaign's,
// for CSV, binary and segmented logs.
func TestRowSinkCrashResumeByteIdentity(t *testing.T) {
	layouts := []struct {
		name string
		ext  string
		seg  int
	}{{"csv", ".csv", 0}, {"binary", record.BinaryExt, 0}, {"segmented", record.BinaryExt, 16}}
	for _, lay := range layouts {
		for _, parallel := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", lay.name, parallel), func(t *testing.T) {
				o := record.Options{FlushEvery: 1, SegmentRows: lay.seg}
				base := t.TempDir()
				logIn := func(variant string) string {
					dir := filepath.Join(base, variant)
					if err := os.Mkdir(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					return filepath.Join(dir, "log"+lay.ext)
				}
				fullPath := logIn("full")
				w, err := record.CreateDurable(fullPath, o)
				if err != nil {
					t.Fatal(err)
				}
				l := newFakeLauncher()
				l.Log = w
				full, err := l.Run(context.Background(), buildExperiment(t, "ks", parallel, true))
				if err != nil && !errors.Is(err, ErrFailureBudget) {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if full.Runs < 8 {
					t.Fatalf("campaign too short to cut: %d runs", full.Runs)
				}

				for _, keep := range []int{1, 3, full.Runs / 2, full.Runs - 2} {
					path := logIn(fmt.Sprintf("crash%d", keep))
					w, err := record.CreateDurable(path, o)
					if err != nil {
						t.Fatal(err)
					}
					l := newFakeLauncher()
					l.Log = &abandoningSink{w: w, keep: keep}
					if _, err := l.Run(context.Background(), buildExperiment(t, "ks", parallel, true)); err == nil {
						t.Fatalf("keep %d: campaign survived the kill", keep)
					}

					if _, _, err := record.TruncateTrailingRun(path); err != nil {
						t.Fatal(err)
					}
					prior, err := record.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					rw, n, err := record.OpenAppend(path, o)
					if err != nil {
						t.Fatal(err)
					}
					if n != len(prior) {
						t.Fatalf("keep %d: OpenAppend sees %d rows, ReadFile %d", keep, n, len(prior))
					}
					last := 0
					if len(prior) > 0 {
						last = prior[len(prior)-1].Run
					}
					l = newFakeLauncherAt(last)
					l.Log = rw
					res, err := l.Resume(context.Background(), buildExperiment(t, "ks", parallel, true), prior)
					if err != nil && !errors.Is(err, ErrFailureBudget) {
						t.Fatal(err)
					}
					if err := rw.Close(); err != nil {
						t.Fatal(err)
					}
					if res.Runs != full.Runs {
						t.Fatalf("keep %d: resumed to %d runs, want %d", keep, res.Runs, full.Runs)
					}
					got, want := dirBytes(t, filepath.Dir(path)), dirBytes(t, filepath.Dir(fullPath))
					if len(got) != len(want) {
						t.Fatalf("keep %d: %d files, want %d", keep, len(got), len(want))
					}
					for name, data := range want {
						if !bytes.Equal(got[name], data) {
							t.Errorf("keep %d: %s differs from the uninterrupted log (%d vs %d bytes)", keep, name, len(got[name]), len(data))
						}
					}
				}
			})
		}
	}
}
