package core

import (
	"testing"

	"sharp/internal/stopping"
)

// TestRuleNameRoundTrip is the property test for the ruleFromName fix:
// for every stopping-rule constructor, recreating the rule from its own
// Name() must yield the same Name() again. The old parser split at the
// LAST '-', so compound kinds ("median-stability-0.03") and scientific-
// notation thresholds ("ks-1e-05") both failed the property.
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
		got, err := ruleFromName(name, seed, stopping.Bounds{})
		if err != nil {
			t.Errorf("ruleFromName(%q): %v", name, err)
			continue
		}
		if got == nil {
			t.Errorf("ruleFromName(%q) = nil rule", name)
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
		if _, err := ruleFromName(name, 1, stopping.Bounds{}); err == nil {
			t.Errorf("ruleFromName(%q) accepted a malformed name", name)
		}
	}
	// Empty means "use the default rule": nil rule, nil error.
	r, err := ruleFromName("", 1, stopping.Bounds{})
	if r != nil || err != nil {
		t.Errorf("ruleFromName(\"\") = %v, %v; want nil, nil", r, err)
	}
}
