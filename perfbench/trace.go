package main

// The traced run's instrumentation. Every span is recorded here, in the
// benchmark's own code, around calls into the public seams each layer
// already exposes: a backend.Backend decorator, a stopping.Rule decorator, a
// core.RowSink decorator around record.Writer, a service.WorkerAPI decorator
// around service.Client, and an obs.Tracer that stamps launcher, sweep and
// service events on receipt. Nothing inside the program changes. Spans stay
// in memory until the run ends.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"sharp/internal/backend"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/service"
	"sharp/internal/stopping"
)

// spans collects span durations and counters by name. It is safe for
// concurrent use: parallel campaigns, sweep cells and service workers all
// record into one instance.
type spans struct {
	mu     sync.Mutex
	durs   map[string][]float64 // seconds
	counts map[string]int
}

func newSpans() *spans {
	return &spans{durs: map[string][]float64{}, counts: map[string]int{}}
}

// since records the span name from start to now.
func (s *spans) since(name string, start time.Time) {
	s.add(name, time.Since(start).Seconds())
}

// add records one span of d seconds.
func (s *spans) add(name string, d float64) {
	s.mu.Lock()
	s.durs[name] = append(s.durs[name], d)
	s.mu.Unlock()
}

// count bumps the counter name by n.
func (s *spans) count(name string, n int) {
	s.mu.Lock()
	s.counts[name] += n
	s.mu.Unlock()
}

// get returns a copy of the durations recorded under name.
func (s *spans) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.durs[name]...)
}

// sum returns the total duration recorded under name.
func (s *spans) sum(name string) float64 {
	total := 0.0
	for _, d := range s.get(name) {
		total += d
	}
	return total
}

// counter returns the counter name.
func (s *spans) counter(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// quantile returns the p-quantile of xs (nearest rank on a sorted copy), or
// 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s)-1) + 0.5)
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// tracedBackend times every Invoke of the decorated backend. Unwrap lets
// backend.SetRunOrdered, SetTracer, SkipRuns and the launcher's *backend.Sim
// SUT lookup reach the decorated backend.
type tracedBackend struct {
	backend.Backend
	sp *spans
}

func (b *tracedBackend) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	start := time.Now()
	invs, err := b.Backend.Invoke(ctx, req)
	b.sp.since("backend.invoke", start)
	return invs, err
}

func (b *tracedBackend) Unwrap() backend.Backend { return b.Backend }

// fullRule is the set of optional interfaces the launcher and schedulers
// probe on a stopping rule. Every rule in package stopping implements it;
// the decorator must forward all of it, or core's parallel engine silently
// falls back to CheckEvery 10 / MaxSamples 1000.
type fullRule interface {
	stopping.Rule
	stopping.Evaluated
	stopping.Progressor
	Bounds() stopping.Bounds
}

// tracedRule times every Add of the decorated rule.
type tracedRule struct {
	fullRule
	sp *spans
}

func newTracedRule(r stopping.Rule, sp *spans) (*tracedRule, error) {
	fr, ok := r.(fullRule)
	if !ok {
		return nil, fmt.Errorf("perfbench: rule %s lacks Bounds/LastEval/Progress", r.Name())
	}
	return &tracedRule{fullRule: fr, sp: sp}, nil
}

func (r *tracedRule) Add(x float64) {
	start := time.Now()
	r.fullRule.Add(x)
	r.sp.since("stopping.add", start)
}

// tracedSink times every row write and the final Close of a record.Writer.
type tracedSink struct {
	w  *record.Writer
	sp *spans
}

func (s *tracedSink) Write(r record.Row) error {
	start := time.Now()
	err := s.w.Write(r)
	s.sp.since("record.write", start)
	return err
}

func (s *tracedSink) Close() error {
	start := time.Now()
	err := s.w.Close()
	s.sp.since("record.close", start)
	return err
}

// tracedWorkerAPI times the lease protocol calls a service.Worker makes
// through service.Client, and counts what each call achieved.
type tracedWorkerAPI struct {
	api service.WorkerAPI
	sp  *spans
	// firstLease receives the first lease time of every campaign.
	firstLease func(campaignID string, at time.Time)
}

func (a *tracedWorkerAPI) Lease(ctx context.Context, workerID string) (*service.Lease, error) {
	start := time.Now()
	l, err := a.api.Lease(ctx, workerID)
	a.sp.since("service.lease", start)
	a.sp.count("service.lease_calls", 1)
	if err == nil {
		a.sp.count("service.leases_granted", 1)
		a.sp.count("service.leased_runs", len(l.Runs))
		if a.firstLease != nil {
			a.firstLease(l.CampaignID, start)
		}
	}
	return l, err
}

func (a *tracedWorkerAPI) Heartbeat(ctx context.Context, leaseID string, token uint64) error {
	start := time.Now()
	err := a.api.Heartbeat(ctx, leaseID, token)
	a.sp.since("service.heartbeat", start)
	return err
}

func (a *tracedWorkerAPI) Complete(ctx context.Context, leaseID string, token uint64, res service.RunResult) error {
	start := time.Now()
	err := a.api.Complete(ctx, leaseID, token, res)
	a.sp.since("service.complete", start)
	a.sp.count("service.completes", 1)
	if err != nil {
		a.sp.count("service.stale_completes", 1)
	}
	return err
}

// eventTracer is the obs.Tracer of the traced run. It counts every event
// type and sums the time between campaign.start and campaign.stop. Cells of
// one sweep share an experiment name (the day is not in it) and run
// concurrently, so a stop cannot be paired with its own start; the total
// is exact all the same, as the sum of stop times minus the sum of start
// times.
type eventTracer struct {
	sp *spans

	mu    sync.Mutex
	t0    time.Time
	total float64 // seconds: sum of stop offsets minus sum of start offsets
	stops int
}

func newEventTracer(sp *spans) *eventTracer {
	return &eventTracer{sp: sp, t0: time.Now()}
}

func (t *eventTracer) Emit(typ string, _ map[string]any) {
	at := time.Since(t.t0).Seconds()
	t.sp.count("event."+typ, 1)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch typ {
	case obs.EventCampaignStart:
		t.total -= at
	case obs.EventCampaignStop:
		t.total += at
		t.stops++
	}
}

// campaigns returns the total campaign time in seconds and the number of
// campaigns stopped. Call it only while no campaign is running.
func (t *eventTracer) campaigns() (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.stops
}
