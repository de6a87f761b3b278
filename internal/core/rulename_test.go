package core

import (
	"testing"

	"sharp/internal/record"
	"sharp/internal/stopping"
	"sharp/internal/sysinfo"
)

// legacyRule decodes the rule of a pre-spec metadata record whose "rule"
// parameter is name, as RecreateExperiment does.
func legacyRule(name string) (stopping.Rule, error) {
	md := record.NewMetadata("legacy", sysinfo.SUT{})
	md.Set("workload", "hotspot")
	md.Set("backend", "sim")
	md.Set("machine", "machine1")
	if name != "" {
		md.Set("rule", name)
	}
	s, err := legacySpec(md)
	if err != nil || s.Rule.Kind == "" {
		return nil, err
	}
	return s.Rule.New()
}

// TestRuleNameRoundTrip is the property test for reading old records'
// rule names: for every stopping-rule constructor, decoding the rule from
// its own Name() must yield the same Name() again. A parser splitting at
// the LAST '-' failed compound kinds ("median-stability-0.03") and
// scientific-notation thresholds ("ks-1e-05").
func TestRuleNameRoundTrip(t *testing.T) {
	const seed = 1
	rules := []stopping.Rule{
		stopping.NewFixed(100),
		stopping.NewCI(0.95, 0.05, stopping.Bounds{}),
		stopping.NewCI(0.95, 2.5e-07, stopping.Bounds{}), // scientific notation
		stopping.NewKS(0.1, stopping.Bounds{}),
		stopping.NewKS(1e-05, stopping.Bounds{}), // '-' inside the exponent
		stopping.NewCV(0.02, stopping.Bounds{}),
		stopping.NewMeanStability(0.02, 0, stopping.Bounds{}),
		stopping.NewMedianStability(0.03, 0, stopping.Bounds{}),
		stopping.NewTailStability(0.95, 0.05, stopping.Bounds{}),
		stopping.NewModalityStability(3, stopping.Bounds{}),
		stopping.NewESS(200, stopping.Bounds{}),
		stopping.NewSelfSimilarity(0.1, 0, seed, stopping.Bounds{}),
		stopping.NewMeta(stopping.MetaConfig{Seed: seed}, stopping.Bounds{}),
	}
	for _, r := range rules {
		name := r.Name()
		got, err := legacyRule(name)
		if err != nil {
			t.Errorf("legacy rule %q: %v", name, err)
			continue
		}
		if got == nil {
			t.Errorf("legacy rule %q = nil rule", name)
			continue
		}
		if got.Name() != name {
			t.Errorf("round-trip: %q -> %q", name, got.Name())
		}
	}
}

// TestRuleFromNameRejectsGarbage: malformed thresholds must be reported,
// not silently parsed as zero.
func TestRuleFromNameRejectsGarbage(t *testing.T) {
	for _, name := range []string{"ks-banana", "fixed-1x", "warp-0.1"} {
		if _, err := legacyRule(name); err == nil {
			t.Errorf("legacy rule %q accepted a malformed name", name)
		}
	}
	// No rule recorded means the default rule: nil rule, nil error.
	r, err := legacyRule("")
	if r != nil || err != nil {
		t.Errorf("legacy rule \"\" = %v, %v; want nil, nil", r, err)
	}
}
