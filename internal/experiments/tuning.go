package experiments

import (
	"fmt"
	"strings"

	"sharp/internal/classify"
	"sharp/internal/randx"
	"sharp/internal/stopping"
	"sharp/internal/textplot"
)

// TuningRow is one synthetic distribution's outcome under the tuning pass.
type TuningRow struct {
	Distribution string
	// Detected is the classifier's label at 1000 samples.
	Detected classify.Class
	// MetaRuns / MetaReason: meta-heuristic stopping behaviour.
	MetaRuns   int
	MetaReason string
	// SelfRuns: generic self-similarity rule behaviour.
	SelfRuns int
	// KSRuns: plain KS rule behaviour.
	KSRuns int
}

// TuningResult is the §IV-c tuning experiment: the detection and stopping
// heuristics exercised on the ten synthetic distributions (normal,
// log-normal, uniform, log-uniform, logistic, bi-modal, multi-modal,
// autocorrelated sinusoidal, Cauchy, constant).
type TuningResult struct {
	Rows []TuningRow
	// CorrectDetections counts classifier hits (constant counts when
	// stopped at the floor before classification).
	CorrectDetections int
	// Accuracy is the per-family classification accuracy over
	// AccuracyTrials independent seeds at n=1000.
	Accuracy map[string]float64
	// AccuracyTrials is the number of seeds per family.
	AccuracyTrials int
}

// AccuracyTrials is the number of independent seeds used for the accuracy
// pass of the tuning experiment.
const AccuracyTrials = 20

// expectedClass maps sampler names to acceptable classifier labels.
var expectedClass = map[string][]classify.Class{
	"normal":     {classify.Normal},
	"lognormal":  {classify.LogNormal},
	"uniform":    {classify.Uniform},
	"loguniform": {classify.LogUniform},
	"logistic":   {classify.Logistic, classify.Normal},
	"bimodal":    {classify.Multimodal},
	"multimodal": {classify.Multimodal},
	"sinusoidal": {classify.Autocorrelated},
	"cauchy":     {classify.HeavyTailed},
	"constant":   {classify.Constant},
}

// Tuning regenerates the tuning-set experiment.
func Tuning(seed uint64) (*TuningResult, error) {
	res := &TuningResult{}
	bounds := stopping.Bounds{MaxSamples: 5000}
	// freshSampler rebuilds an identically seeded sampler per rule, so each
	// rule observes the same deterministic stream.
	for i, s := range randx.TuningSet(randx.New(seed)) {
		name := s.Name()
		// Classification at the reference size (1000 samples, §IV-c).
		ref := randx.SampleN(freshSampler(seed, i), 1000)
		profile := classify.Classify(ref)
		row := TuningRow{Distribution: name, Detected: profile.Class}
		// Meta rule.
		meta := stopping.NewMeta(stopping.MetaConfig{}, bounds)
		row.MetaRuns = len(stopping.Drive(freshSampler(seed, i).Next, meta))
		row.MetaReason = meta.Explain()
		// Generic self-similarity rule.
		self := stopping.NewSelfSimilarity(0.08, 5, seed, bounds)
		row.SelfRuns = len(stopping.Drive(freshSampler(seed, i).Next, self))
		// Plain KS rule.
		ks := stopping.NewKS(0.1, bounds)
		row.KSRuns = len(stopping.Drive(freshSampler(seed, i).Next, ks))
		for _, ok := range expectedClass[name] {
			if profile.Class == ok {
				res.CorrectDetections++
				break
			}
		}
		res.Rows = append(res.Rows, row)
	}
	// Multi-seed accuracy pass: classify each family at n=1000 over
	// AccuracyTrials independent seeds.
	res.Accuracy = map[string]float64{}
	res.AccuracyTrials = AccuracyTrials
	for i := range randx.TuningSet(randx.New(seed)) {
		name := freshSampler(seed, i).Name()
		hits := 0
		for trial := 0; trial < AccuracyTrials; trial++ {
			trialSeed := seed + uint64(trial+1)*104729
			sampler := randx.TuningSet(randx.New(trialSeed))[i]
			profile := classify.Classify(randx.SampleN(sampler, 1000))
			for _, ok := range expectedClass[name] {
				if profile.Class == ok {
					hits++
					break
				}
			}
		}
		res.Accuracy[name] = float64(hits) / AccuracyTrials
	}
	return res, nil
}

// freshSampler rebuilds tuning sampler #i with deterministic seeding.
func freshSampler(seed uint64, i int) randx.Sampler {
	return randx.TuningSet(randx.New(seed))[i]
}

// Render implements Report.
func (r *TuningResult) Render() string {
	var b strings.Builder
	b.WriteString("# Tuning: detection and stopping on the 10 synthetic distributions (§IV-c)\n\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Distribution, string(row.Detected),
			fmt.Sprintf("%d", row.MetaRuns),
			fmt.Sprintf("%d", row.SelfRuns),
			fmt.Sprintf("%d", row.KSRuns),
			row.MetaReason,
		})
	}
	b.WriteString(textplot.Table(
		[]string{"distribution", "detected class", "meta runs", "self-sim runs", "ks runs", "meta stop reason"}, rows))
	fmt.Fprintf(&b, "\nClassifier: %d/%d families identified correctly at n=1000 (reference seed).\n",
		r.CorrectDetections, len(r.Rows))
	fmt.Fprintf(&b, "\nPer-family accuracy over %d seeds:\n\n", r.AccuracyTrials)
	var accRows [][]string
	for _, row := range r.Rows {
		accRows = append(accRows, []string{row.Distribution,
			fmt.Sprintf("%.0f%%", 100*r.Accuracy[row.Distribution])})
	}
	b.WriteString(textplot.Table([]string{"distribution", "accuracy"}, accRows))
	return b.String()
}
