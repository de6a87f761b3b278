package main

// End-to-end crash/resume tests through the CLI: a campaign whose log is
// torn mid-row (kill -9) or checkpointed at a run boundary (SIGINT) must,
// after `run --resume` with the same flags, produce a CSV byte-identical to
// the uninterrupted campaign. SHARP_CLOCK freezes timestamps so the
// comparison covers every column.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharp/internal/record"
)

func TestResumeReproducesInterruptedCampaign(t *testing.T) {
	t.Setenv("SHARP_CLOCK", "2026-07-04T12:00:00Z")
	dir := t.TempDir()
	fullCSV := filepath.Join(dir, "full.csv")
	fullMeta := filepath.Join(dir, "full.md")
	base := []string{"run", "--workload", "srad", "--machine", "machine1",
		"--rule", "fixed", "--threshold", "40", "--min", "10", "--quiet"}

	// Uninterrupted reference campaign.
	args := append(append([]string{}, base...), "--csv", fullCSV, "--meta", fullMeta)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fullCSV)
	if err != nil {
		t.Fatal(err)
	}
	wantMeta, err := os.ReadFile(fullMeta)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("hard crash leaves a torn log, no checkpoint", func(t *testing.T) {
		// Simulate kill -9 mid-flush: a prefix of the log ending mid-line.
		lines := strings.SplitAfter(string(want), "\n")
		cut := len(lines) / 2
		torn := strings.Join(lines[:cut], "") + lines[cut][:len(lines[cut])/2]
		crashCSV := filepath.Join(dir, "crash.csv")
		if err := os.WriteFile(crashCSV, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append(append([]string{}, base...), "--csv", crashCSV, "--resume")
		if err := run(context.Background(), args); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(crashCSV)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resumed log differs from uninterrupted (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("graceful interrupt resumes from the metadata checkpoint", func(t *testing.T) {
		rows, err := record.ReadFile(fullCSV)
		if err != nil {
			t.Fatal(err)
		}
		k := rows[len(rows)-1].Run / 2
		var prefix []record.Row
		for _, r := range rows {
			if r.Run <= k {
				prefix = append(prefix, r)
			}
		}
		graceCSV := filepath.Join(dir, "grace.csv")
		if err := record.WriteRowsAtomic(graceCSV, prefix); err != nil {
			t.Fatal(err)
		}
		md, err := record.ParseMetadataFile(fullMeta)
		if err != nil {
			t.Fatal(err)
		}
		md.SetCheckpoint(k, len(prefix))
		graceMeta := filepath.Join(dir, "grace.md")
		if err := md.WriteFile(graceMeta); err != nil {
			t.Fatal(err)
		}
		args := append(append([]string{}, base...),
			"--csv", graceCSV, "--meta", graceMeta, "--resume")
		if err := run(context.Background(), args); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(graceCSV)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("checkpoint-resumed log differs from uninterrupted (%d vs %d bytes)", len(got), len(want))
		}
		// The completed campaign's metadata clears the checkpoint and matches
		// the uninterrupted run's record exactly.
		gotMeta, err := os.ReadFile(graceMeta)
		if err != nil {
			t.Fatal(err)
		}
		back, err := record.ParseMetadataFile(graceMeta)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := back.Checkpoint(); ok {
			t.Error("completed resume left a checkpoint in the metadata")
		}
		if !bytes.Equal(gotMeta, wantMeta) {
			t.Errorf("resumed metadata differs from uninterrupted")
		}
	})

	t.Run("an empty log resumes from scratch", func(t *testing.T) {
		// kill -9 before the first run was pushed leaves a 0-byte log (the
		// CSV header is written with the first row): nothing was durable,
		// so resuming it is the whole campaign.
		emptyCSV := filepath.Join(dir, "empty.csv")
		if err := os.WriteFile(emptyCSV, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		args := append(append([]string{}, base...), "--csv", emptyCSV, "--resume")
		if err := run(context.Background(), args); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(emptyCSV)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resumed empty log differs from a fresh run (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("resume without a csv is rejected", func(t *testing.T) {
		args := append(append([]string{}, base...), "--resume")
		if err := run(context.Background(), args); err == nil ||
			!strings.Contains(err.Error(), "--csv") {
			t.Fatalf("want --csv requirement error, got %v", err)
		}
	})
}

// segmentedState snapshots a segmented log for byte comparison: the manifest
// plus every segment file, keyed by name.
func segmentedState(t *testing.T, path string) map[string][]byte {
	t.Helper()
	state := map[string][]byte{}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	state["manifest"] = b
	des, err := os.ReadDir(path + ".seg")
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".sharpb") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(path+".seg", de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[de.Name()] = b
	}
	return state
}

// TestSegmentedResumeRepairsTornManifest is the kill -9 shape for a segmented
// log where the crash also tore the manifest itself: the active segment ends
// mid-frame, and the manifest at <path> is a truncated prefix (a torn rewrite). `run
// --resume` with the same flags must rebuild the manifest from the segments,
// drop the torn trailing run, re-execute it, and leave every file — manifest
// and all segments — byte-identical to the uninterrupted campaign.
func TestSegmentedResumeRepairsTornManifest(t *testing.T) {
	t.Setenv("SHARP_CLOCK", "2026-07-04T12:00:00Z")
	dir := t.TempDir()
	full := filepath.Join(dir, "full.sharpb")
	base := []string{"run", "--workload", "srad", "--machine", "machine1",
		"--rule", "fixed", "--threshold", "40", "--min", "10", "--quiet",
		"--segment-rows", "8"}

	args := append(append([]string{}, base...), "--csv", full)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	want := segmentedState(t, full)
	if len(want) < 4 { // manifest + at least three segments: rolling happened
		t.Fatalf("campaign produced only %d segmented files; raise rows or lower --segment-rows", len(want)-1)
	}

	// Reconstruct the crashed state from the reference bytes.
	crash := filepath.Join(dir, "crash.sharpb")
	if err := os.MkdirAll(crash+".seg", 0o755); err != nil {
		t.Fatal(err)
	}
	active := ""
	for name, b := range want {
		if name == "manifest" {
			continue
		}
		if active == "" || name > active {
			active = name
		}
		if err := os.WriteFile(filepath.Join(crash+".seg", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the active segment mid-frame and the manifest mid-write.
	ab := want[active]
	if err := os.WriteFile(filepath.Join(crash+".seg", active), ab[:len(ab)-13], 0o644); err != nil {
		t.Fatal(err)
	}
	mb := want["manifest"]
	if err := os.WriteFile(crash, mb[:len(mb)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	args = append(append([]string{}, base...), "--csv", crash, "--resume")
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	got := segmentedState(t, crash)
	if len(got) != len(want) {
		t.Fatalf("resumed log has %d files, reference has %d", len(got), len(want))
	}
	for name, wb := range want {
		gb, ok := got[name]
		if !ok {
			t.Fatalf("resumed log is missing %s", name)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s differs after resume (%d vs %d bytes)", name, len(gb), len(wb))
		}
	}
	// And the repaired log replays to the same rows as the reference.
	wantRows, err := record.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := record.ReadFile(crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("resumed log replays %d rows, reference %d", len(gotRows), len(wantRows))
	}
}
