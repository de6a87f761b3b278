package microbench

import (
	"context"
	"fmt"
	"testing"

	"sharp/internal/backend"
)

func TestElevenMicrobenchmarks(t *testing.T) {
	specs := All()
	if len(specs) != 11 {
		t.Fatalf("microbenchmarks = %d, want 11 (as in the paper)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Description == "" || s.Run == nil {
			t.Errorf("incomplete spec: %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestAllRunSuccessfully(t *testing.T) {
	ctx := context.Background()
	for _, s := range All() {
		metrics, err := s.Run(ctx, 7)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if len(metrics) == 0 {
			t.Errorf("%s: no metrics", s.Name)
		}
		for k, v := range metrics {
			if v != v { // NaN
				t.Errorf("%s: metric %s is NaN", s.Name, k)
			}
		}
	}
}

func TestRegisterIntoBackend(t *testing.T) {
	b := backend.NewInProcess()
	Register(b)
	if got := len(b.Workloads()); got != 11 {
		t.Fatalf("registered workloads = %d", got)
	}
	invs, err := b.Invoke(context.Background(), backend.Request{Workload: "sort", Run: 1})
	if err != nil {
		t.Fatal(err)
	}
	if invs[0].Err != nil {
		t.Fatal(invs[0].Err)
	}
	if invs[0].ExecTime() <= 0 {
		t.Error("exec_time missing")
	}
	if invs[0].Metrics["elements"] != 200_000 {
		t.Errorf("metrics = %v", invs[0].Metrics)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("hash"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if len(Names()) != 11 {
		t.Error("Names() size")
	}
}

func TestDeterministicMetrics(t *testing.T) {
	// Compute-style microbenchmarks must produce identical data-dependent
	// metrics for the same seed (timing metrics excluded).
	ctx := context.Background()
	for _, name := range []string{"cpu-spin", "sort", "hash", "compress", "matmul"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.Run(ctx, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Run(ctx, 42)
		if err != nil {
			t.Fatal(err)
		}
		if a["sink"] != b["sink"] || a["ratio"] != b["ratio"] {
			t.Errorf("%s: nondeterministic output: %v vs %v", name, a, b)
		}
	}
}

func TestCompressionVerifiesRoundTrip(t *testing.T) {
	s, _ := ByName("compress")
	m, err := s.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m["ratio"] <= 1 {
		t.Errorf("compressible data did not compress: ratio %v", m["ratio"])
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("microbench: unknown microbenchmark %q", name)
}

// Names lists the microbenchmark names.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
