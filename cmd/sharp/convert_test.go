package main

// Differential tests for `sharp convert` and for crash/resume on binary
// (.sharpb) logs through the CLI: conversion must be lossless in both
// directions, and a campaign recorded to a torn binary log must resume to
// the same bytes the uninterrupted campaign produced — with the CSV export
// byte-identical to a campaign that recorded CSV directly.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sharp/internal/cache"
	"sharp/internal/record"
)

// runCLI invokes the CLI entry point.
func runCLI(t *testing.T, args ...string) error {
	t.Helper()
	return run(context.Background(), args)
}

func TestConvertRoundTrip(t *testing.T) {
	t.Setenv("SHARP_CLOCK", "2026-07-04T12:00:00Z")
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.csv")
	if err := runCLI(t, "run", "--workload", "srad", "--machine", "machine1",
		"--rule", "fixed", "--threshold", "25", "--min", "10", "--quiet",
		"--chaos", "0.1", "--csv", orig); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}

	// csv -> binary -> csv reproduces the original bytes.
	bin := filepath.Join(dir, "log.sharpb")
	back := filepath.Join(dir, "back.csv")
	if err := runCLI(t, "convert", orig, bin); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, "convert", bin, back); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("csv->binary->csv round trip differs (%d vs %d bytes)", len(got), len(want))
	}

	// The binary file really is binary, and --to overrides the extension.
	data, _ := os.ReadFile(bin)
	if !bytes.HasPrefix(data, []byte("SHARPB1\n")) {
		t.Fatal("convert to .sharpb did not produce a binary log")
	}
	forced := filepath.Join(dir, "forced.weird")
	if err := runCLI(t, "convert", "--to", "binary", orig, forced); err != nil {
		t.Fatal(err)
	}
	r1, err := record.ReadFile(forced)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := record.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("--to binary rows differ from source rows")
	}

	// Misuse is rejected.
	if err := runCLI(t, "convert", orig); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("missing output accepted: %v", err)
	}
	if err := runCLI(t, "convert", orig, orig); err == nil || !strings.Contains(err.Error(), "same path") {
		t.Fatalf("in-place convert accepted: %v", err)
	}
	if err := runCLI(t, "convert", "--to", "parquet", orig, back); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestResumeBinaryLogViaCLI(t *testing.T) {
	t.Setenv("SHARP_CLOCK", "2026-07-04T12:00:00Z")
	dir := t.TempDir()
	base := []string{"run", "--workload", "srad", "--machine", "machine1",
		"--rule", "fixed", "--threshold", "40", "--min", "10", "--quiet"}

	// Reference: the same campaign recorded as CSV and as binary.
	refCSV := filepath.Join(dir, "full.csv")
	if err := runCLI(t, append(append([]string{}, base...), "--csv", refCSV)...); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	fullBin := filepath.Join(dir, "full.sharpb")
	if err := runCLI(t, append(append([]string{}, base...), "--csv", fullBin)...); err != nil {
		t.Fatal(err)
	}
	wantBin, err := os.ReadFile(fullBin)
	if err != nil {
		t.Fatal(err)
	}

	// The binary log holds the same campaign: exported CSV is byte-identical.
	export := filepath.Join(dir, "export.csv")
	if err := runCLI(t, "convert", fullBin, export); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(export); !bytes.Equal(got, want) {
		t.Fatal("binary campaign exports different CSV than a CSV campaign")
	}

	// Hard crash: a byte-level prefix of the binary log (torn mid-block —
	// exactly what kill -9 mid-flush leaves). Resume must
	// repair it and finish to the reference bytes.
	crash := filepath.Join(dir, "crash.sharpb")
	if err := os.WriteFile(crash, wantBin[:2*len(wantBin)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, append(append([]string{}, base...), "--csv", crash, "--resume")...); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(crash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBin) {
		t.Fatalf("resumed binary log differs from uninterrupted (%d vs %d bytes)", len(got), len(wantBin))
	}

	// --format=binary forces the encoding regardless of extension.
	forcedPath := filepath.Join(dir, "forced.csv")
	if err := runCLI(t, append(append([]string{}, base...),
		"--csv", forcedPath, "--format", "binary")...); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(forcedPath)
	if !bytes.HasPrefix(data, []byte("SHARPB1\n")) {
		t.Fatal("--format binary ignored")
	}
	if err := runCLI(t, append(append([]string{}, base...),
		"--csv", forcedPath, "--format", "parquet")...); err == nil {
		t.Fatal("unknown --format accepted")
	}
}

func TestCacheCLI(t *testing.T) {
	t.Setenv("SHARP_CLOCK", "2026-07-04T12:00:00Z")
	dir := t.TempDir()
	// Populate the cache through a sweep.
	if err := runCLI(t, "sweep", "--workloads", "bfs", "--machines", "machine1",
		"--days", "1", "--rule", "fixed", "--threshold", "10", "--max", "10",
		"--cache-dir", dir); err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if err := runCLI(t, "cache", "stats", "--dir", dir); err != nil {
		t.Fatal(err)
	}
	// Prune everything; the directory is left committed-entry-free.
	if err := runCLI(t, "cache", "prune", "--dir", dir, "--older-than", "0s"); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Stats(); err != nil || st.Entries != 0 {
		t.Fatalf("after prune: entries = %d (err %v), want 0", st.Entries, err)
	}
	// Misuse is rejected.
	if err := runCLI(t, "cache"); err == nil {
		t.Fatal("bare cache accepted")
	}
	if err := runCLI(t, "cache", "stats"); err == nil {
		t.Fatal("cache stats without --dir accepted")
	}
	if err := runCLI(t, "cache", "defrag"); err == nil {
		t.Fatal("unknown cache subcommand accepted")
	}
}
