package stopping

import (
	"math"
	"math/rand"
	"testing"
)

func TestUrgencySemantics(t *testing.T) {
	cases := []struct {
		name string
		p    Progress
		want float64
	}{
		{"done", Progress{Done: true, HasEval: true, Statistic: 5, Threshold: 1}, 0},
		{"unevaluated", Progress{N: 3}, math.Inf(1)},
		{"descending far", Progress{HasEval: true, Statistic: 0.3, Threshold: 0.1}, 3},
		{"descending at threshold", Progress{HasEval: true, Statistic: 0.1, Threshold: 0.1}, 1},
		{"ascending half way", Progress{HasEval: true, Ascending: true, Statistic: 20, Threshold: 40}, 0.5},
		{"ascending overshoot clamps", Progress{HasEval: true, Ascending: true, Statistic: 50, Threshold: 40}, 0},
		{"degenerate threshold", Progress{HasEval: true, Statistic: 0.2, Threshold: 0}, 0},
	}
	for _, tc := range cases {
		if got := tc.p.Urgency(); math.Abs(got-tc.want) > 1e-12 && !(math.IsInf(got, 1) && math.IsInf(tc.want, 1)) {
			t.Errorf("%s: urgency = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSnapshotBeforeFirstEval: below MinSamples no convergence check has
// run, so the snapshot must be maximally urgent, not zero-statistic calm.
func TestSnapshotBeforeFirstEval(t *testing.T) {
	r := NewCI(0.05, 0.95, Bounds{MinSamples: 10, MaxSamples: 100, CheckEvery: 5})
	for i := 0; i < 5; i++ {
		r.Add(1 + 0.01*float64(i))
	}
	p := Snapshot(r)
	if p.N != 5 || p.HasEval || !math.IsInf(p.Urgency(), 1) {
		t.Fatalf("pre-eval snapshot = %+v (urgency %v)", p, p.Urgency())
	}
}

// TestSnapshotTracksConvergence: urgency is finite once evaluated and hits
// exactly 0 when the rule stops.
func TestSnapshotTracksConvergence(t *testing.T) {
	r := NewCI(0.10, 0.95, Bounds{MinSamples: 10, MaxSamples: 2000, CheckEvery: 10})
	rng := rand.New(rand.NewSource(7))
	var prev float64 = math.Inf(1)
	for !r.Done() {
		r.Add(100 + rng.NormFloat64())
		p := Snapshot(r)
		if p.HasEval && !p.Done {
			u := p.Urgency()
			if math.IsInf(u, 0) || math.IsNaN(u) || u < 0 {
				t.Fatalf("mid-run urgency = %v at n=%d", u, p.N)
			}
			prev = u
		}
	}
	p := Snapshot(r)
	if !p.Done || p.Urgency() != 0 {
		t.Fatalf("converged snapshot = %+v, want urgency 0 (last mid-run urgency %v)", p, prev)
	}
	if p.N != r.N() {
		t.Fatalf("snapshot N = %d, rule N = %d", p.N, r.N())
	}
}

// TestAscendingRulesMarked: rules whose statistic grows toward the
// threshold must carry Ascending so urgency is the remaining fraction.
func TestAscendingRulesMarked(t *testing.T) {
	asc := map[string]Rule{
		"fixed": NewFixed(40),
		"ess":   NewESS(100, Bounds{MinSamples: 10, MaxSamples: 500, CheckEvery: 10}),
	}
	for name, r := range asc {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20; i++ {
			r.Add(rng.NormFloat64())
		}
		p := Snapshot(r)
		if !p.Ascending {
			t.Errorf("%s: snapshot not marked ascending", name)
		}
		if p.HasEval && p.Urgency() > 1 {
			t.Errorf("%s: ascending urgency %v > 1", name, p.Urgency())
		}
	}
	desc := NewKS(0.05, Bounds{MinSamples: 10, MaxSamples: 500, CheckEvery: 10})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		desc.Add(rng.NormFloat64())
	}
	if p := Snapshot(desc); p.Ascending {
		t.Error("ks: descending rule marked ascending")
	}
}

// TestMetaRetainsFiniteStatistic: Meta records NaN statistics on checks
// where the family criterion yields none; the snapshot must keep the last
// numeric evaluation instead of poisoning urgency with NaN.
func TestMetaRetainsFiniteStatistic(t *testing.T) {
	r := NewMeta(MetaConfig{}, Bounds{MinSamples: 20, MaxSamples: 3000, CheckEvery: 10})
	rng := rand.New(rand.NewSource(11))
	sawFinite := false
	for !r.Done() {
		r.Add(50 + rng.NormFloat64()*5)
		p := Snapshot(r)
		if p.HasEval {
			sawFinite = true
			if math.IsNaN(p.Statistic) || math.IsNaN(p.Urgency()) {
				t.Fatalf("meta snapshot leaked NaN at n=%d: %+v", p.N, p)
			}
		}
	}
	if !sawFinite {
		t.Fatal("meta rule never produced a finite evaluation")
	}
}

// TestSnapshotAllocationFree: the budget scheduler snapshots every cell on
// every pick, so a snapshot must not allocate.
func TestSnapshotAllocationFree(t *testing.T) {
	b := Bounds{MinSamples: 10, MaxSamples: 500, CheckEvery: 10}
	rules := map[string]Rule{
		"ks":    NewKS(0.05, b),
		"ci":    NewCI(0.95, 0.05, b),
		"meta":  NewMeta(MetaConfig{}, b),
		"fixed": NewFixed(40),
	}
	for name, r := range rules {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 30; i++ {
			r.Add(10 + rng.NormFloat64())
		}
		var p Progress
		if allocs := testing.AllocsPerRun(100, func() { p = Snapshot(r) }); allocs != 0 {
			t.Errorf("%s: Snapshot allocates %v times per call", name, allocs)
		}
		if p.N != r.N() {
			t.Errorf("%s: snapshot N = %d, rule N = %d", name, p.N, r.N())
		}
	}
}
