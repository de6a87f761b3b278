package main

// convert + cache subcommands: tooling around the binary columnar log and
// the content-addressed result cache.

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sharp/internal/cache"
	"sharp/internal/record"
)

// cmdConvert re-encodes a tidy-data log between CSV and the binary columnar
// format. The conversion is lossless in both directions (differential-tested
// in convert_test.go): rows stream through in block-sized batches, so a
// million-row log converts without materializing it.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "auto", "output encoding: csv | binary | auto (by output extension: .sharpb = binary)")
	segmentRows := fs.Int("segment-rows", 0, "roll a binary output into ~N-row segments under <out>.seg/ (0 = single file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("convert: usage: sharp convert [--to csv|binary] <in> <out>")
	}
	in, out := fs.Arg(0), fs.Arg(1)
	if in == out {
		return fmt.Errorf("convert: input and output are the same path %q", in)
	}
	format, err := record.ParseFormat(*to)
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	w, err := record.CreateDurable(out, record.Options{Format: format, SegmentRows: *segmentRows})
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	n := 0
	if err := record.StreamFile(in, func(batch []record.Row) error {
		n += len(batch)
		return w.WriteAll(batch)
	}); err != nil {
		w.Close()
		os.Remove(out)
		return fmt.Errorf("convert: %w", err)
	}
	if err := w.Close(); err != nil {
		os.Remove(out)
		return fmt.Errorf("convert: %w", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", out, n)
	return nil
}

// cmdCache inspects (stats) or expires (prune) a result cache directory.
func cmdCache(args []string) error {
	use := "cache: usage: sharp cache <stats|prune> --dir <dir> [--older-than 168h]"
	if len(args) == 0 {
		return fmt.Errorf("%s", use)
	}
	switch args[0] {
	case "stats":
		fs := flag.NewFlagSet("cache stats", flag.ExitOnError)
		dir := fs.String("dir", "", "cache directory (required)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("cache stats: --dir is required")
		}
		store, err := cache.Open(*dir)
		if err != nil {
			return err
		}
		st, err := store.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("cache %s:\n", store.Dir())
		fmt.Printf("  entries: %d\n", st.Entries)
		fmt.Printf("  bytes:   %d\n", st.Bytes)
		if !st.Oldest.IsZero() {
			fmt.Printf("  oldest:  %s\n", st.Oldest.UTC().Format(time.RFC3339))
		}
		fmt.Printf("  lookups: %d hits / %d misses / %d stores\n",
			st.Counters.Hits, st.Counters.Misses, st.Counters.Stores)
		return nil
	case "prune":
		fs := flag.NewFlagSet("cache prune", flag.ExitOnError)
		dir := fs.String("dir", "", "cache directory (required)")
		olderThan := fs.Duration("older-than", 7*24*time.Hour, "remove entries older than this")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("cache prune: --dir is required")
		}
		store, err := cache.Open(*dir)
		if err != nil {
			return err
		}
		removed, err := store.Prune(time.Now().Add(-*olderThan))
		if err != nil {
			return err
		}
		fmt.Printf("pruned %d entries older than %s from %s\n", removed, olderThan, store.Dir())
		return nil
	default:
		return fmt.Errorf("cache: unknown subcommand %q\n%s", args[0], use)
	}
}
