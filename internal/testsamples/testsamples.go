// Package testsamples draws the seeded sample sets that the analysis
// goldens, differential tests and benchmarks share, so every package pins
// its output on the same inputs. Only tests import it.
package testsamples

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"sharp/internal/backend"
	"sharp/internal/machine"
)

// Runs and Conc size the Sim sets like the analysis logs of the perfbench
// harness: Runs runs of Conc instances, so 31,252 exec_time samples.
const (
	Runs = 7_813
	Conc = 4
)

// SimExecTimes draws the exec_time samples of a Runs-run campaign of bench
// on the named machine from the Sim backend seeded with seed.
func SimExecTimes(tb testing.TB, bench, machineName string, seed uint64) []float64 {
	tb.Helper()
	m, err := machine.ByName(machineName)
	if err != nil {
		tb.Fatal(err)
	}
	sim := backend.NewSim(m, seed)
	out := make([]float64, 0, Runs*Conc)
	for run := 1; run <= Runs; run++ {
		invs, err := sim.Invoke(context.Background(), backend.Request{Workload: bench, Concurrency: Conc, Run: run, Day: 1})
		if err != nil {
			tb.Fatal(err)
		}
		for _, inv := range invs {
			out = append(out, inv.Metrics[backend.MetricExecTime])
		}
	}
	return out
}

// HalfSteps draws n half-integers k/2 with k in [lo, lo+8] from r, so every
// value is tied many times over. Zeros come with both signs, half of them
// -0, so a set whose minimum or maximum is zero has ±0 at that end.
func HalfSteps(r *rand.Rand, n, lo int) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := float64(lo+r.IntN(9)) / 2
		if v == 0 && r.IntN(2) == 0 {
			v = math.Copysign(0, -1)
		}
		out[i] = v
	}
	return out
}

// SeededHalfSteps is HalfSteps on a generator of its own, seeded with seed.
func SeededHalfSteps(seed uint64, n, lo int) []float64 {
	return HalfSteps(rand.New(rand.NewPCG(seed, 0x71e5)), n, lo)
}
