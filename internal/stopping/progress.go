package stopping

import "math"

// Progress is a read-only snapshot of a rule's convergence state, taken
// without recomputing any statistic: it reuses the bookkeeping every rule
// already maintains for its rule.eval trace events. The budget scheduler
// scores cells on these snapshots to decide where the next batch of runs
// goes.
type Progress struct {
	// N is the number of observations the rule has seen.
	N int
	// Done mirrors Rule.Done().
	Done bool
	// Statistic / Threshold are from the most recent convergence check that
	// produced a numeric (non-NaN) statistic. Meta records NaN statistics on
	// checks where the delegated family criterion produced none; those are
	// skipped here so Urgency never poisons on a transiently-absent stat.
	Statistic float64
	Threshold float64
	// HasEval is false until the first numeric convergence check; before
	// MinSamples a rule has evaluated nothing.
	HasEval bool
	// Ascending is true for rules whose statistic grows toward the threshold
	// (fixed run count, effective sample size, modality streak); false for
	// the shrink-toward-threshold majority (CI width, KS distance, drift).
	Ascending bool
}

// Urgency maps the snapshot to a non-negative "how far from converged"
// score: 0 for a finished cell, +Inf for one that has not produced a single
// convergence check yet (nothing is known, so it is maximally urgent), and
// otherwise the normalized distance from the stopping threshold. Descending
// rules score Statistic/Threshold (a KS of 0.3 against a 0.1 threshold is
// 3x as urgent as one at its threshold); ascending rules score the
// remaining fraction (Threshold-Statistic)/Threshold.
func (p Progress) Urgency() float64 {
	if p.Done {
		return 0
	}
	if !p.HasEval {
		return math.Inf(1)
	}
	if p.Threshold <= 0 {
		// Degenerate threshold (e.g. a constant-distribution stop): nothing
		// meaningful to normalize against.
		return 0
	}
	if p.Ascending {
		u := (p.Threshold - p.Statistic) / p.Threshold
		if u < 0 {
			return 0
		}
		return u
	}
	u := p.Statistic / p.Threshold
	if u < 0 {
		return 0
	}
	return u
}

// Progressor reports a rule's convergence state cheaply; every Rule does.
type Progressor interface {
	Progress() Progress
}

// Progress implements Progressor for every rule embedding base.
func (b *base) Progress() Progress {
	p := Progress{N: len(b.samples), Done: b.done, Ascending: b.ascending}
	if b.hasFinite {
		p.Statistic = b.lastFinite.Statistic
		p.Threshold = b.lastFinite.Threshold
		p.HasEval = true
	}
	return p
}

// Snapshot returns the rule's Progress without allocating: the budget
// scheduler takes one per cell on every pick.
func Snapshot(r Rule) Progress {
	return r.Progress()
}
