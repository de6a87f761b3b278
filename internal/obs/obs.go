// Package obs is SHARP's observability subsystem: structured campaign event
// tracing, a Prometheus-style metrics registry, live progress rendering, and
// an optional sidecar HTTP server exposing /metrics and /debug/pprof.
//
// The paper's second pillar is *recording distributions completely* (§IV-d):
// the tidy CSV log and the metadata file record what was measured, but the
// execution layers — launcher, retry policies, circuit breakers, chaos
// injection, the FaaS platform — were black boxes at runtime. The JSONL
// trace produced by this package is a complete-record artifact alongside the
// CSV: every scheduled run, every retry attempt with its backoff delay,
// every breaker transition, every chaos injection and every stopping-rule
// evaluation (statistic, threshold, verdict) is an event, so a campaign can
// be audited — and its control flow replayed — after the fact.
//
// Determinism: event payloads carry no wall-clock-derived values except the
// Time field itself, and encoding/json marshals field maps with sorted keys,
// so two runs of a seeded sequential campaign produce byte-identical traces
// once timestamps are normalized (asserted by the launcher's trace tests).
// Every sink is safe for concurrent use; the parallel launcher's workers
// emit events from multiple goroutines.
//
// The package deliberately depends only on the standard library so every
// layer of SHARP (backends, resilience, the FaaS platform, the launcher) can
// import it without cycles.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured campaign event. Events are ordered by Seq within a
// tracer; Time is wall-clock and is the only non-deterministic field of a
// seeded sequential campaign.
type Event struct {
	// Seq is the 1-based emission index within the tracer.
	Seq uint64 `json:"seq"`
	// Time is the emission wall-clock time (UTC).
	Time time.Time `json:"time"`
	// Type is the event type (see the Event* constants).
	Type string `json:"type"`
	// Fields carries the event payload. encoding/json sorts map keys, so the
	// serialized form is deterministic.
	Fields map[string]any `json:"fields,omitempty"`
}

// Event types — the campaign event taxonomy. Producers across the execution
// stack emit these; sinks (JSONL, progress, metrics bridge) consume
// them uniformly.
const (
	// EventCampaignStart opens a measurement campaign
	// (experiment, workload, backend, rule, seed, parallel, concurrency).
	EventCampaignStart = "campaign.start"
	// EventCampaignStop closes a campaign
	// (runs, samples, errors, failed_runs, stop_reason).
	EventCampaignStop = "campaign.stop"
	// EventRunScheduled marks a run handed to the backend (run). Under the
	// parallel launcher these are emitted from worker goroutines in arrival
	// order; the sequential path emits them in run order.
	EventRunScheduled = "run.scheduled"
	// EventRunMerged marks a run folded into the result in canonical run
	// order (run, status, value | error_rows).
	EventRunMerged = "run.merged"
	// EventRetryAttempt marks one failed attempt that will be retried
	// (workload, run, attempt, delay_ms, error).
	EventRetryAttempt = "retry.attempt"
	// EventBreakerTransition marks a circuit-breaker state change
	// (name, from, to).
	EventBreakerTransition = "breaker.transition"
	// EventChaosInject marks one injected fault (run, kind, instance).
	EventChaosInject = "chaos.inject"
	// EventRuleEval marks one stopping-rule convergence evaluation
	// (rule, n, statistic, threshold, verdict).
	EventRuleEval = "rule.eval"
	// EventFaasInvoke marks one FaaS platform dispatch
	// (worker, workload, status, cold).
	EventFaasInvoke = "faas.invoke"
	// EventCampaignCheckpoint marks a campaign interrupted at a run
	// boundary with its durable state flushed
	// (experiment, runs, rows, samples) — the handoff point --resume
	// continues from.
	EventCampaignCheckpoint = "campaign.checkpoint"
	// EventCampaignResume marks a campaign continuing from a recorded log
	// (experiment, resumed_runs, resumed_rows, resumed_samples, errors,
	// failed_runs).
	EventCampaignResume = "campaign.resume"
	// EventCampaignAccepted marks a campaign admitted by the service
	// coordinator (campaign, tenant, rule, queued).
	EventCampaignAccepted = "campaign.accepted"
	// EventCampaignRejected marks a submission refused by admission control
	// (tenant, reason).
	EventCampaignRejected = "campaign.rejected"
	// EventLeaseGranted marks a run batch leased to a worker
	// (lease, token, worker, campaign, runs, deadline_ms).
	EventLeaseGranted = "lease.granted"
	// EventLeaseExpired marks a lease whose worker missed its heartbeat
	// (lease, token, worker, campaign, unacked).
	EventLeaseExpired = "lease.expired"
	// EventLeaseReassigned marks unacknowledged runs of a dead lease
	// returned to the queue for deterministic re-execution
	// (lease, worker, campaign, runs).
	EventLeaseReassigned = "lease.reassigned"
	// EventWorkerEvicted marks a worker removed from lease rotation after
	// its breaker opened (worker, failures).
	EventWorkerEvicted = "worker.evicted"
	// EventServiceDrain marks the coordinator entering graceful drain
	// (active_campaigns, outstanding_leases).
	EventServiceDrain = "service.drain"
	// EventServiceRecovered marks a campaign journal replayed after a
	// coordinator restart (campaign, tenant, state, rows).
	EventServiceRecovered = "service.recovered"
	// EventCacheHit marks a completed campaign cell served from the
	// content-addressed result cache with zero backend calls
	// (key, experiment, rows).
	EventCacheHit = "cache.hit"
	// EventCacheMiss marks a cache lookup that found no entry (key,
	// experiment).
	EventCacheMiss = "cache.miss"
	// EventCacheStore marks a completed cell written to the result cache
	// (key, experiment, rows).
	EventCacheStore = "cache.store"
	// EventChangepointTest marks one E-Divisive segment test: a candidate
	// split maximizing the Q statistic plus its permutation verdict
	// (lo, hi, tau, q, p, permutations, significant).
	EventChangepointTest = "changepoint.test"
	// EventTrendChangePoint marks one significant change point in a
	// benchmark trajectory (series, index, direction, before, after,
	// magnitude_pct, p, q).
	EventTrendChangePoint = "trend.changepoint"
	// EventTrendGate marks the exit-code decision of a trend run
	// (series_checked, change_points, regressions, acknowledged, failed).
	EventTrendGate = "trend.gate"
	// EventBudgetAllocate marks one budget-scheduler assignment: a batch of
	// runs granted to a sweep cell (cell, runs, round, policy, urgency,
	// spent, budget).
	EventBudgetAllocate = "budget.allocate"
	// EventBudgetExhausted marks a budgeted sweep stopping because the run
	// budget ran out before every cell converged (policy, spent, budget,
	// cells_done, cells_total).
	EventBudgetExhausted = "budget.exhausted"
)

// Tracer consumes campaign events. Implementations must be safe for
// concurrent use. Emit must not retain fields after returning.
type Tracer interface {
	Emit(typ string, fields map[string]any)
}

// nop is the no-op tracer.
type nop struct{}

func (nop) Emit(string, map[string]any) {}

// Nop is the no-op tracer: every Emit is discarded.
var Nop Tracer = nop{}

// Emit sends an event to t, tolerating a nil tracer. It is the producers'
// single entry point, so instrumented code never nil-checks.
func Emit(t Tracer, typ string, fields map[string]any) {
	if t == nil {
		return
	}
	t.Emit(typ, fields)
}

// Close closes t if it is closeable (flushing buffered sinks). Nil and
// non-closeable tracers return nil.
func Close(t Tracer) error {
	if c, ok := t.(io.Closer); ok && c != nil {
		return c.Close()
	}
	return nil
}

// Multi fans every event out to each non-nil tracer in order.
func Multi(tracers ...Tracer) Tracer {
	var active []Tracer
	for _, t := range tracers {
		if t != nil && t != Nop {
			active = append(active, t)
		}
	}
	switch len(active) {
	case 0:
		return Nop
	case 1:
		return active[0]
	}
	return multi(active)
}

type multi []Tracer

func (m multi) Emit(typ string, fields map[string]any) {
	for _, t := range m {
		t.Emit(typ, fields)
	}
}

// Close implements io.Closer, closing every closeable member and returning
// the first error.
func (m multi) Close() error {
	var first error
	for _, t := range m {
		if err := Close(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// JSONL is a Tracer writing one JSON event per line — the machine-readable
// complete-record artifact. It is safe for concurrent use; Seq numbers are
// assigned under the same lock that orders the writes, so the (seq, line)
// correspondence is exact even under the parallel launcher.
type JSONL struct {
	// Now is the event clock (tests may override; default time.Now).
	Now func() time.Time

	mu  sync.Mutex
	enc *json.Encoder
	w   io.Writer
	c   io.Closer
	seq uint64
	err error
}

// NewJSONL returns a JSONL tracer writing to w. If w is an io.Closer it is
// closed by Close.
func NewJSONL(w io.Writer) *JSONL {
	t := &JSONL{Now: time.Now, enc: json.NewEncoder(w), w: w}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit implements Tracer.
func (t *JSONL) Emit(typ string, fields map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return // sticky error: tracing must never abort a campaign
	}
	t.seq++
	t.err = t.enc.Encode(Event{
		Seq:    t.seq,
		Time:   t.Now().UTC(),
		Type:   typ,
		Fields: fields,
	})
}

// Close implements io.Closer.
func (t *JSONL) Close() error {
	t.mu.Lock()
	err, c := t.err, t.c
	t.mu.Unlock()
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Collector is a Tracer accumulating events in memory — the test sink.
type Collector struct {
	// Now is the event clock (tests may override; default time.Now).
	Now func() time.Time

	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty in-memory tracer.
func NewCollector() *Collector { return &Collector{Now: time.Now} }

// Emit implements Tracer.
func (c *Collector) Emit(typ string, fields map[string]any) {
	// Copy the fields: producers may reuse their maps.
	var cp map[string]any
	if fields != nil {
		cp = make(map[string]any, len(fields))
		for k, v := range fields {
			cp[k] = v
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, Event{
		Seq:    uint64(len(c.events) + 1),
		Time:   c.Now().UTC(),
		Type:   typ,
		Fields: cp,
	})
}

// Events returns a snapshot of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// ByType returns the collected events of one type, in order.
func (c *Collector) ByType(typ string) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}
