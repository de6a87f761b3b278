package stopping

import (
	"math"
	"strings"
	"testing"
	"time"

	"sharp/internal/randx"
	"sharp/internal/similarity"
	"sharp/internal/stats"
)

func drive(t *testing.T, s randx.Sampler, r Rule) []float64 {
	t.Helper()
	return Drive(s.Next, r)
}

func TestFixedStopsExactly(t *testing.T) {
	r := NewFixed(25)
	got := drive(t, randx.NewNormal(randx.New(1), 10, 1), r)
	if len(got) != 25 {
		t.Fatalf("fixed-25 collected %d", len(got))
	}
	if !r.Done() {
		t.Fatal("not done")
	}
}

func TestCIStopsOnTightData(t *testing.T) {
	// Low-variance normal: CI rule should stop well before the cap.
	r := NewCI(0.95, 0.05, Bounds{MaxSamples: 1000})
	got := drive(t, randx.NewNormal(randx.New(2), 100, 1), r)
	if len(got) >= 1000 {
		t.Fatalf("CI rule never converged: n=%d", len(got))
	}
	if len(got) < 10 {
		t.Fatalf("CI rule stopped before the floor: n=%d", len(got))
	}
}

func TestCITighterThresholdRunsLonger(t *testing.T) {
	loose := drive(t, randx.NewNormal(randx.New(3), 100, 20), NewCI(0.95, 0.05, Bounds{MaxSamples: 5000}))
	tight := drive(t, randx.NewNormal(randx.New(3), 100, 20), NewCI(0.95, 0.01, Bounds{MaxSamples: 5000}))
	if len(tight) <= len(loose) {
		t.Fatalf("T2=0.01 (%d runs) should need more than T1=0.05 (%d runs)", len(tight), len(loose))
	}
}

func TestKSStopsAndSavesComputation(t *testing.T) {
	r := NewKS(0.1, Bounds{MaxSamples: 1000})
	got := drive(t, randx.NewBimodalNormal(randx.New(4), 8, 0.3, 12, 0.3, 0.5), r)
	if len(got) >= 1000 {
		t.Fatalf("KS rule hit the cap")
	}
	// The partial sample must reproduce the full distribution: KS distance
	// between collected prefix and a fresh large sample below ~2x threshold.
	truth := randx.SampleN(randx.NewBimodalNormal(randx.New(5), 8, 0.3, 12, 0.3, 0.5), 5000)
	if d := similarity.KS(got, truth); d > 0.2 {
		t.Fatalf("stopped sample diverges from truth: KS=%v (n=%d)", d, len(got))
	}
}

func TestMaxSamplesCap(t *testing.T) {
	// Cauchy never satisfies a CI rule; the cap must save us.
	r := NewCI(0.95, 0.001, Bounds{MaxSamples: 200})
	got := drive(t, randx.NewCauchy(randx.New(6), 10, 5), r)
	if len(got) != 200 {
		t.Fatalf("cap not enforced: n=%d", len(got))
	}
	if !strings.Contains(r.Explain(), "max samples") {
		t.Fatalf("explain = %q", r.Explain())
	}
}

func TestMinSamplesFloor(t *testing.T) {
	r := NewCI(0.95, 0.9, Bounds{MinSamples: 40, MaxSamples: 1000})
	got := drive(t, randx.NewConstant(5), r)
	if len(got) < 40 {
		t.Fatalf("stopped below floor: n=%d", len(got))
	}
}

func TestCVRule(t *testing.T) {
	r := NewCV(0.05, Bounds{MaxSamples: 2000})
	got := drive(t, randx.NewNormal(randx.New(7), 50, 5), r)
	if len(got) >= 2000 {
		t.Fatal("CV rule hit the cap on friendly data")
	}
}

func TestMeanAndMedianStability(t *testing.T) {
	m := NewMeanStability(0.01, 30, Bounds{MaxSamples: 2000})
	got := drive(t, randx.NewNormal(randx.New(8), 50, 2), m)
	if len(got) >= 2000 {
		t.Fatal("mean-stability hit cap")
	}
	md := NewMedianStability(0.02, 30, Bounds{MaxSamples: 5000})
	got2 := drive(t, randx.NewCauchy(randx.New(9), 10, 1), md)
	if len(got2) >= 5000 {
		t.Fatal("median-stability hit cap on Cauchy")
	}
}

func TestModalityStability(t *testing.T) {
	r := NewModalityStability(3, Bounds{MaxSamples: 2000, CheckEvery: 25})
	got := drive(t, randx.NewBimodalNormal(randx.New(10), 8, 0.3, 12, 0.3, 0.5), r)
	if len(got) >= 2000 {
		t.Fatal("modality rule hit cap")
	}
}

func TestESSRuleAutocorrelated(t *testing.T) {
	// Autocorrelated data: ESS rule must require far more raw samples than
	// the i.i.d. case to reach the same effective count.
	iid := drive(t, randx.NewNormal(randx.New(11), 10, 1), NewESS(100, Bounds{MaxSamples: 5000}))
	ar := drive(t, randx.NewAR1(randx.New(12), 10, 0.9, 0.3), NewESS(100, Bounds{MaxSamples: 5000}))
	if len(ar) <= len(iid) {
		t.Fatalf("ESS: autocorrelated n=%d should exceed iid n=%d", len(ar), len(iid))
	}
}

func TestSelfSimilarityGenericRule(t *testing.T) {
	for _, s := range randx.TuningSet(randx.New(13)) {
		r := NewSelfSimilarity(0.08, 5, 99, Bounds{MaxSamples: 2000})
		got := Drive(s.Next, r)
		if len(got) < 10 {
			t.Errorf("%s: stopped too early (n=%d)", s.Name(), len(got))
		}
	}
}

func TestMetaDelegation(t *testing.T) {
	// A constant stream stops at the sample floor via the self-similarity
	// fallback (the classifier needs 30 samples, the stream converges at 10).
	constRule := NewMeta(MetaConfig{}, Bounds{MaxSamples: 3000})
	got := Drive(randx.NewConstant(5).Next, constRule)
	if len(got) > 30 {
		t.Errorf("constant: n=%d, want immediate stop", len(got))
	}

	cases := []struct {
		s       randx.Sampler
		wantTag string // substring expected in the explanation
	}{
		{randx.NewNormal(randx.New(14), 100, 2), "relative CI"},
		{randx.NewBimodalNormal(randx.New(15), 8, 0.3, 12, 0.3, 0.5), "KS"},
		{randx.NewSinusoidal(randx.New(16), 10, 2, 50, 0.3), "ESS"},
	}
	for _, c := range cases {
		r := NewMeta(MetaConfig{}, Bounds{MaxSamples: 3000})
		Drive(c.s.Next, r)
		if !strings.Contains(r.Explain(), c.wantTag) && !strings.Contains(r.Explain(), "max samples") {
			t.Errorf("%s: explain = %q, want to contain %q", c.s.Name(), r.Explain(), c.wantTag)
		}
		if strings.Contains(r.Explain(), "max samples") {
			t.Logf("%s hit the cap: %q", c.s.Name(), r.Explain())
		}
	}
}

func TestMetaStopsOnEveryTuningDistribution(t *testing.T) {
	// The meta rule must terminate (below cap) on every synthetic tuning
	// distribution except possibly the pathological Cauchy, and never stop
	// below the floor.
	for _, s := range randx.TuningSet(randx.New(17)) {
		r := NewMeta(MetaConfig{}, Bounds{MaxSamples: 5000})
		got := Drive(s.Next, r)
		if len(got) < 10 {
			t.Errorf("%s: n=%d below floor", s.Name(), len(got))
		}
		if len(got) >= 5000 && s.Name() != "cauchy" {
			t.Errorf("%s: meta hit the cap (%s)", s.Name(), r.Explain())
		}
	}
}

func TestNewNamed(t *testing.T) {
	for _, name := range Names() {
		r, err := NewNamed(name, 0, Bounds{MaxSamples: 100})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := Drive(randx.NewNormal(randx.New(18), 10, 1).Next, r)
		if len(got) == 0 && name != "fixed" {
			t.Errorf("%s: no samples collected", name)
		}
	}
	if _, err := NewNamed("nope", 0, Bounds{}); err == nil {
		t.Error("unknown rule must error")
	}
}

func TestRuleSavingsVsFixed1000(t *testing.T) {
	// Reproduction of the headline claim direction: across the GPU-like
	// bimodal workloads the KS rule should use far fewer runs than 1000
	// while keeping KS-to-truth low.
	sampler := func(seed uint64) randx.Sampler {
		return randx.NewBimodalNormal(randx.New(seed), 1.0, 0.02, 1.1, 0.02, 0.6)
	}
	totalRuns := 0
	const workloads = 10
	for i := uint64(0); i < workloads; i++ {
		r := NewKS(0.1, Bounds{MaxSamples: 1000})
		got := Drive(sampler(i).Next, r)
		totalRuns += len(got)
		truth := randx.SampleN(sampler(i+100), 1000)
		if d := similarity.KS(got, truth); d > 0.25 {
			t.Errorf("workload %d: KS to truth %.3f", i, d)
		}
	}
	savings := 1 - float64(totalRuns)/float64(workloads*1000)
	if savings < 0.5 {
		t.Errorf("savings vs fixed-1000 = %.1f%%, want > 50%%", savings*100)
	}
	t.Logf("savings = %.1f%% (paper: 89.8%%)", savings*100)
}

func TestTailStability(t *testing.T) {
	// A light-tailed distribution stabilizes its p95 quickly.
	r := NewTailStability(0.95, 0.02, Bounds{MaxSamples: 5000})
	got := drive(t, randx.NewNormal(randx.New(20), 100, 5), r)
	if len(got) >= 5000 {
		t.Fatalf("tail rule hit the cap on normal data (%s)", r.Explain())
	}
	if len(got) < 100 {
		t.Fatalf("tail rule stopped before the tail had mass: n=%d", len(got))
	}
	// A heavy-tailed distribution must require more samples to pin p95
	// than the light-tailed one.
	rh := NewTailStability(0.95, 0.02, Bounds{MaxSamples: 5000})
	heavy := drive(t, randx.NewLogNormal(randx.New(21), 0, 1.5), rh)
	if len(heavy) <= len(got)/2 {
		t.Errorf("heavy tail (n=%d) stopped much earlier than normal (n=%d)", len(heavy), len(got))
	}
	if !strings.Contains(r.Explain(), "p95 drift") {
		t.Errorf("explain = %q", r.Explain())
	}
}

func TestTailStabilityDefaults(t *testing.T) {
	r := NewTailStability(0, 0, Bounds{})
	if r.Quantile != 0.95 || r.Threshold != 0.02 {
		t.Fatalf("defaults = %v/%v", r.Quantile, r.Threshold)
	}
	if r.Name() != "tail-stability-0.02" {
		t.Fatalf("name = %q", r.Name())
	}
}

// TestKSRuleNaNTerminates: backend.ParseMetrics accepts "NaN", so a NaN
// observation can reach the KS rule; its check must still finish and match
// the recompute path, which sorts NaN first.
func TestKSRuleNaNTerminates(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = 100 + float64(i%7)
	}
	xs[13] = math.NaN()
	got := make(chan float64, 1)
	go func() {
		r := NewKS(0.02, Bounds{})
		for _, x := range xs {
			r.Add(x)
		}
		ev, _ := r.LastEval()
		got <- ev.Statistic
	}()
	select {
	case ks := <-got:
		if want := stats.KSStatistic(stats.SplitHalves(xs)); ks != want {
			t.Fatalf("KS with a NaN sample = %v, want %v", ks, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("KS rule did not finish a check within 10s of a NaN sample")
	}
}
