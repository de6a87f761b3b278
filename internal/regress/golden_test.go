package regress

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharp/internal/testsamples"
)

var update = flag.Bool("update", false, "rewrite the golden outcome file")

// TestGoldenOutcomes pins every field of Check's Outcome, floats printed
// in their shortest round-trip form, on perfbench-sized Sim pairs and
// tie-heavy pairs. Regenerate with -update only when the gate is meant to
// change.
func TestGoldenOutcomes(t *testing.T) {
	hot1 := testsamples.SimExecTimes(t, "hotspot", "machine1", 11)
	cases := []struct {
		name              string
		baseline, current []float64
	}{
		{"hotspot machine1 vs machine3", hot1, testsamples.SimExecTimes(t, "hotspot", "machine3", 12)},
		{"hotspot machine1 vs machine1", hot1, testsamples.SimExecTimes(t, "hotspot", "machine1", 13)},
		{"srad machine3 vs machine1", testsamples.SimExecTimes(t, "srad", "machine3", 22), testsamples.SimExecTimes(t, "srad", "machine1", 21)},
		{"ties shifted", testsamples.SeededHalfSteps(31, 3_000, 0), testsamples.SeededHalfSteps(32, 3_000, 1)},
		{"ties same", testsamples.SeededHalfSteps(33, 3_000, -4), testsamples.SeededHalfSteps(34, 2_500, -4)},
	}
	var b strings.Builder
	for _, c := range cases {
		out, err := Check(c.baseline, c.current, Config{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: %+v\n", c.name, out)
	}
	got := b.String()
	path := filepath.Join("testdata", "golden_outcomes.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("outcomes differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
