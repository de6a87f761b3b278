package main

import (
	"math"
	"testing"
)

// TestHostScale proves rates are multiplied and times divided by both
// factors of their unit, and that the unscaled means are kept.
func TestHostScale(t *testing.T) {
	raw := &sheet{}
	h := hostScale{speed: []float64{1, 2}, raw: raw}
	s := series{vals: []float64{100, 100}, steal: []float64{1.5, 1}}
	e2e := &sheet{}
	h.rate(e2e, "r", "runs/s", s)
	h.time(e2e, "t", s)
	for name, want := range map[string]float64{"r": (150 + 200) / 2.0, "t": (100/1.5 + 50) / 2} {
		if got := e2e.metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
		if got := raw.metrics[name].Value; got != 100 {
			t.Errorf("unscaled %s = %g, want 100", name, got)
		}
	}
}

// TestClockAndReference proves the host factors are measurable here: the
// reference takes CPU time, and a stretch's steal factor is at least 1.
func TestClockAndReference(t *testing.T) {
	if sec := newRefState().seconds(); sec <= 0 || sec > 10*refNominal*10 {
		t.Fatalf("reference took %g CPU seconds", sec)
	}
	c := startClock()
	newRefState().seconds()
	if wall, steal := c.stop(); wall <= 0 || steal < 1 {
		t.Fatalf("stretch wall %g s, steal factor %g", wall, steal)
	}
}
