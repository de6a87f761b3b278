package stopping

import (
	"testing"
	"testing/quick"

	"sharp/internal/randx"
)

// Property tests over the whole rule family: every rule respects its
// bounds (never below the floor, never above the cap) and is a pure
// function of its observation stream (deterministic).
func TestRuleBoundsProperty(t *testing.T) {
	mkRules := func(b Bounds, seed uint64) []Rule {
		return []Rule{
			NewCI(0.95, 0.05, b),
			NewKS(0.1, b),
			NewCV(0.1, b),
			NewMeanStability(0.02, 0, b),
			NewMedianStability(0.02, 0, b),
			NewTailStability(0.95, 0.02, b),
			NewModalityStability(3, b),
			NewESS(50, b),
			NewSelfSimilarity(0.08, 3, seed, b),
			NewMeta(MetaConfig{}, b),
		}
	}
	f := func(seed16 uint16, minRaw, maxRaw uint8, distIdx uint8) bool {
		seed := uint64(seed16) + 1
		b := Bounds{
			MinSamples: int(minRaw)%50 + 1,
			MaxSamples: int(maxRaw)%400 + 50,
			CheckEvery: 5,
		}
		wantMin := b.MinSamples
		if wantMin > b.MaxSamples {
			wantMin = b.MaxSamples
		}
		set := randx.TuningSet(randx.New(seed))
		s := set[int(distIdx)%len(set)]
		for _, r := range mkRules(b, seed) {
			n := len(Drive(s.Next, r))
			if n > max(b.MaxSamples, b.MinSamples) {
				return false
			}
			if n < wantMin {
				return false
			}
			if !r.Done() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRuleDeterminismProperty(t *testing.T) {
	f := func(seed16 uint16, distIdx uint8) bool {
		seed := uint64(seed16) + 7
		b := Bounds{MaxSamples: 300}
		runOnce := func() int {
			set := randx.TuningSet(randx.New(seed))
			s := set[int(distIdx)%len(set)]
			r := NewMeta(MetaConfig{}, b)
			return len(Drive(s.Next, r))
		}
		return runOnce() == runOnce()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
