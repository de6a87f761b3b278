package classify

import (
	"testing"

	"sharp/internal/randx"
)

func sample(s randx.Sampler, n int) []float64 { return randx.SampleN(s, n) }

func TestClassifyTuningSet(t *testing.T) {
	// Each synthetic tuning distribution must be assigned a sensible class.
	// Log-uniform over a wide range is strongly right-skewed with a flat
	// log-density; logistic vs normal separation needs large n, so we accept
	// the documented acceptable labels per family.
	rng := randx.New(2024)
	const n = 1000
	cases := []struct {
		s          randx.Sampler
		acceptable map[Class]bool
	}{
		{randx.NewNormal(rng.Fork(), 10, 1), map[Class]bool{Normal: true}},
		{randx.NewLogNormal(rng.Fork(), 2, 0.5), map[Class]bool{LogNormal: true}},
		{randx.NewUniform(rng.Fork(), 5, 15), map[Class]bool{Uniform: true}},
		{randx.NewLogUniform(rng.Fork(), 1, 100), map[Class]bool{LogUniform: true}},
		{randx.NewLogistic(rng.Fork(), 10, 1), map[Class]bool{Logistic: true, Normal: true}},
		{randx.NewBimodalNormal(rng.Fork(), 8, 0.5, 12, 0.5, 0.5), map[Class]bool{Multimodal: true}},
		{randx.NewMultimodalNormal(rng.Fork(), 0.4, 6, 10, 14, 18), map[Class]bool{Multimodal: true}},
		{randx.NewSinusoidal(rng.Fork(), 10, 2, 50, 0.3), map[Class]bool{Autocorrelated: true}},
		{randx.NewCauchy(rng.Fork(), 10, 1), map[Class]bool{HeavyTailed: true}},
		{randx.NewConstant(10), map[Class]bool{Constant: true}},
	}
	for _, c := range cases {
		p := Classify(sample(c.s, n))
		if !c.acceptable[p.Class] {
			t.Errorf("%s classified as %s (profile %+v)", c.s.Name(), p.Class, p)
		}
	}
}

func TestClassifyAccuracyOverSeeds(t *testing.T) {
	// Repeat classification over many seeds; require high accuracy for the
	// clearly separable families (this is the tuning experiment of §IV-c).
	const trials = 25
	const n = 1000
	type fam struct {
		name string
		make func(r *randx.RNG) randx.Sampler
		ok   map[Class]bool
	}
	fams := []fam{
		{"normal", func(r *randx.RNG) randx.Sampler { return randx.NewNormal(r, 10, 1) }, map[Class]bool{Normal: true}},
		{"bimodal", func(r *randx.RNG) randx.Sampler { return randx.NewBimodalNormal(r, 8, 0.5, 12, 0.5, 0.5) }, map[Class]bool{Multimodal: true}},
		{"cauchy", func(r *randx.RNG) randx.Sampler { return randx.NewCauchy(r, 10, 1) }, map[Class]bool{HeavyTailed: true}},
		{"sinusoidal", func(r *randx.RNG) randx.Sampler { return randx.NewSinusoidal(r, 10, 2, 50, 0.3) }, map[Class]bool{Autocorrelated: true}},
		{"uniform", func(r *randx.RNG) randx.Sampler { return randx.NewUniform(r, 5, 15) }, map[Class]bool{Uniform: true}},
	}
	for _, f := range fams {
		hits := 0
		for trial := 0; trial < trials; trial++ {
			r := randx.New(uint64(1000 + trial*37))
			p := Classify(sample(f.make(r), n))
			if f.ok[p.Class] {
				hits++
			}
		}
		if hits < trials*4/5 {
			t.Errorf("%s: only %d/%d correct", f.name, hits, trials)
		}
	}
}

func TestClassifyTooFewSamples(t *testing.T) {
	p := Classify([]float64{1, 2, 3})
	if p.Class != Unknown {
		t.Errorf("class = %s, want unknown for tiny samples", p.Class)
	}
}

func TestConstantWithJitterIsNotConstant(t *testing.T) {
	rng := randx.New(8)
	xs := sample(randx.NewNormal(rng, 10, 0.001), 500)
	p := Classify(xs)
	if p.Class == Constant {
		t.Error("small jitter misclassified as constant")
	}
}
