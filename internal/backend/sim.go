package backend

import (
	"context"
	"fmt"
	"sync"

	"sharp/internal/machine"
	"sharp/internal/perfmodel"
)

// Sim executes workloads against the simulated testbed: execution times are
// drawn from the calibrated perfmodel generators instead of wall-clock
// measurement, so five "days" of 1000-run experiments complete in
// milliseconds. This is the substitution that replaces the paper's physical
// A100/H100 servers (see DESIGN.md).
//
// Each workload/day pair owns one deterministic sample stream (like repeated
// executions on a real machine-day). By default draws are consumed in
// request-arrival order, exactly like repeated executions on real hardware —
// this is what the sequential launcher and the FaaS platform (which
// partitions a global run counter across per-worker Sims, leaving gaps in
// each Sim's sequence) rely on.
//
// The parallel launcher instead needs values that are a function of the run
// index alone, because its workers complete in scheduler order. It opts in
// via SetRunOrdered (the RunOrdered interface): draws are then synthesized
// in canonical run order — when a request for run r arrives before runs
// next..r-1 have drawn, their draws are generated immediately (in order)
// and parked in a pending cache until those requests arrive. Since a
// sequential campaign's arrival order *is* canonical run order, the
// run-ordered mode reproduces the sequential stream bit-for-bit.
type Sim struct {
	// Machine is the simulated machine executing requests.
	Machine *machine.Machine
	// Seed is the experiment seed.
	Seed uint64

	mu         sync.Mutex
	runOrdered bool
	streams    map[streamKey]*simStream
}

// streamKey names one workload/day sample stream.
type streamKey struct {
	workload string
	day      int
}

// SetRunOrdered toggles canonical run-order draw synthesis (see the type
// comment). The parallel launcher enables it; leave it off for
// arrival-order consumption.
func (b *Sim) SetRunOrdered(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.runOrdered = on
}

// simStream is the deterministic per-workload/day sample stream with its
// run-ordered synthesis state.
type simStream struct {
	g  *perfmodel.Gen
	pg *perfmodel.PhaseGen
	// next is the lowest measured run index that has not drawn yet.
	next int
	// pending holds draws synthesized ahead for not-yet-arrived runs:
	// the run's invocations, one per instance.
	pending map[int][]Invocation
	// phases is the per-draw scratch of a phase-decomposed stream.
	phases []float64
}

// NewSim returns a simulated backend on the given machine.
func NewSim(m *machine.Machine, seed uint64) *Sim {
	return &Sim{
		Machine: m,
		Seed:    seed,
		streams: map[streamKey]*simStream{},
	}
}

// Name implements Backend.
func (b *Sim) Name() string { return "sim" }

// stream returns (creating if needed) the sampler stream for a workload/day
// pair. The caller must hold b.mu.
func (b *Sim) stream(workload string, day int) (*simStream, error) {
	key := streamKey{workload, day}
	if s, ok := b.streams[key]; ok {
		return s, nil
	}
	model, ok := perfmodel.For(workload)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, workload)
	}
	g, err := model.Sampler(b.Machine, day, b.Seed)
	if err != nil {
		return nil, err
	}
	s := &simStream{g: g, next: 1, pending: map[int][]Invocation{}}
	if len(model.Phases) > 0 {
		pg, err := model.PhaseSampler(b.Machine, day, b.Seed)
		if err != nil {
			return nil, err
		}
		s.pg = pg
	}
	b.streams[key] = s
	return s, nil
}

// skipOne consumes the next stream draw and discards it.
func (s *simStream) skipOne() {
	if s.pg != nil {
		_, s.phases = s.pg.Next(s.phases)
	} else {
		s.g.Next()
	}
}

// drawOne consumes the next stream draw: the full metrics map one instance
// observes.
func (s *simStream) drawOne() map[string]float64 {
	if s.pg == nil {
		metrics := make(map[string]float64, 1)
		metrics[MetricExecTime] = s.g.Next()
		return metrics
	}
	var total float64
	total, s.phases = s.pg.Next(s.phases)
	metrics := make(map[string]float64, 1+len(s.phases))
	metrics[MetricExecTime] = total
	for j, name := range s.pg.PhaseNames() {
		metrics[name] = s.phases[j]
	}
	return metrics
}

// draw returns one run's conc invocations on worker, one stream draw per
// instance.
func (s *simStream) draw(conc int, worker string) []Invocation {
	out := make([]Invocation, conc)
	for i := range out {
		out[i] = Invocation{Instance: i + 1, Metrics: s.drawOne(), Worker: worker}
	}
	return out
}

// drawRun returns the conc invocations of one request. In run-ordered
// mode it enforces canonical run order for measured runs (run >= 1):
// out-of-order arrivals synthesize the draws of intervening runs into the
// pending cache. Warmup requests (run < 1), replays of already-drawn runs
// (retries), and all requests outside run-ordered mode consume the stream
// at arrival, preserving the sequential launcher's behavior.
func (s *simStream) drawRun(run, conc int, worker string, runOrdered bool) []Invocation {
	if runOrdered && run >= 1 {
		if d, ok := s.pending[run]; ok {
			delete(s.pending, run)
			return d
		}
		if run >= s.next {
			for q := s.next; q < run; q++ {
				s.pending[q] = s.draw(conc, worker)
			}
			s.next = run + 1
		}
	}
	return s.draw(conc, worker)
}

// SkipRuns implements RunSkipper: it consumes (and discards) the draws that
// n measured runs at the given concurrency would take from the workload/day
// stream, in the same order live sequential execution would, and advances
// the run-ordered synthesis cursor past them. Resume uses it so the
// continued campaign's runs draw exactly the values the uninterrupted
// campaign would have produced.
func (b *Sim) SkipRuns(workload string, day, conc, n int) error {
	if conc < 1 {
		conc = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.stream(workload, day)
	if err != nil {
		return err
	}
	for range n * conc {
		s.skipOne()
	}
	s.next += n
	return nil
}

// Invoke implements Backend. Phase-decomposed workloads report per-phase
// metrics alongside exec_time (the Fig. 7 fine-grained path).
func (b *Sim) Invoke(ctx context.Context, req Request) ([]Invocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conc := req.Concurrency
	if conc < 1 {
		conc = 1
	}
	b.mu.Lock()
	s, err := b.stream(req.Workload, req.Day)
	if err != nil {
		b.mu.Unlock()
		return nil, err
	}
	out := s.drawRun(req.Run, conc, b.Machine.Name, b.runOrdered)
	b.mu.Unlock()
	return out, nil
}

// Close implements Backend.
func (b *Sim) Close() error { return nil }
