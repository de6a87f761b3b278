package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sharp/internal/backend"
)

// WorkerAPI is the lease protocol from the worker's side. The Coordinator
// implements it directly (in-process workers, used by the differential and
// soak tests under -race) and the HTTP Client implements it over the wire
// (cmd/sharp-serve fleets) — same protocol, same semantics, one worker
// implementation for both.
//
// Both also implement CompleteRuns (see batchCompleter), which settles a
// whole lease in one call and carries the worker's next lease back; a Worker
// uses it when its API has it and falls back to one Complete per run and a
// Lease per lease otherwise, so decorators that wrap only these three
// methods keep working.
type WorkerAPI interface {
	// Lease requests a batch of runs. ErrNoWork when the queue is empty,
	// ErrDraining during drain, ErrWorkerEvicted while the worker's breaker
	// is open.
	Lease(ctx context.Context, workerID string) (*Lease, error)
	// Heartbeat keeps a lease alive while its runs compute.
	Heartbeat(ctx context.Context, leaseID string, token uint64) error
	// Complete delivers one finished run of a lease.
	Complete(ctx context.Context, leaseID string, token uint64, res RunResult) error
}

// batchCompleter is the optional batch acknowledgment of a WorkerAPI: all of
// results land, or none do. When they land and next names a worker, the
// returned lease (nil when nothing was granted) is that worker's next batch.
type batchCompleter interface {
	CompleteRuns(ctx context.Context, leaseID string, token uint64, results []RunResult, next string) (*Lease, error)
}

// ErrWorkerKilled reports a deliberate (test-injected) worker death.
var ErrWorkerKilled = errors.New("service: worker killed")

// Worker is a FaaS-style campaign worker: it polls for leases, rebuilds each
// campaign's deterministic backend from the spec riding in the lease,
// computes the leased runs, and acknowledges them together. Workers are
// stateless by construction — the backend cache is a pure performance
// optimization (run-ordered synthesis is index-addressed, so a cached
// stream and a fresh one produce the same bytes for any requested run) —
// which is what makes worker death free: nothing is lost that a colleague
// can't recompute.
type Worker struct {
	// ID names the worker in leases, breaker state, and metrics.
	ID string
	// API is the coordinator connection (in-process or HTTP).
	API WorkerAPI
	// Poll is the idle wait between lease attempts (default 5ms).
	Poll time.Duration
	// HeartbeatEvery is the heartbeat cadence while computing a batch
	// (default TTL/3, per lease).
	HeartbeatEvery time.Duration
	// KillAfter, when > 0, makes the worker die (stop heartbeating and
	// return ErrWorkerKilled) immediately BEFORE completing its
	// (KillAfter+1)-th run: it computes the whole lease holding that run,
	// acknowledges only the runs before it, so exactly KillAfter runs are
	// completed, and vanishes with the rest unacknowledged — the worst
	// crash point, guaranteeing orphaned leased runs that the lease expiry
	// must recover. 0 = immortal.
	KillAfter int

	mu        sync.Mutex
	backends  map[string]backend.Backend
	completed int
}

// Run polls for leases until ctx is cancelled (returns nil) or the worker
// dies by KillAfter (returns ErrWorkerKilled). A lease that rides back on an
// acknowledgment is served at once; Lease is called only when none came.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	var next *Lease
	for {
		if ctx.Err() != nil {
			return nil // a lease still in hand expires and is re-leased
		}
		l := next
		if l == nil {
			var err error
			if l, err = w.API.Lease(ctx, w.ID); err != nil {
				// ErrNoWork, ErrDraining, ErrWorkerEvicted or a transient
				// transport error: back off and re-poll.
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(poll):
				}
				continue
			}
		}
		var err error
		if next, err = w.serve(ctx, l); err != nil {
			return err
		}
	}
}

// serve computes one lease's batch, heartbeating throughout, then
// acknowledges it, returning the next lease when one rode back on the
// acknowledgment.
func (w *Worker) serve(ctx context.Context, l *Lease) (*Lease, error) {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	every := w.HeartbeatEvery
	if every <= 0 {
		every = l.TTL / 3
	}
	if every <= 0 {
		every = time.Second
	}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				if err := w.API.Heartbeat(hbCtx, l.ID, l.Token); err != nil {
					return // stale: the batch is lost; computing loop will find out
				}
			}
		}
	}()

	results := make([]RunResult, 0, len(l.Runs))
	if b, err := w.backendFor(ctx, l.CampaignID, l.Spec); err != nil {
		// Can't build the backend (bad spec should have been rejected at
		// admission): complete every run as failed so the campaign surfaces
		// the error instead of waiting out lease expiry.
		for _, run := range l.Runs {
			results = append(results, RunResult{Run: run, Err: err.Error()})
		}
	} else {
		spec := l.Spec.withDefaults()
		for _, run := range l.Runs {
			results = append(results, w.compute(ctx, b, spec, run))
		}
	}

	w.mu.Lock()
	kill := w.KillAfter > 0 && w.completed+len(results) > w.KillAfter
	if kill {
		// Acknowledge only the prefix before the cut and die with the
		// computed suffix in hand, unacknowledged: the cruelest crash
		// point. stopHB (deferred) silences heartbeats; the lease expires;
		// the suffix is reassigned.
		results = results[:w.KillAfter-w.completed]
	}
	w.mu.Unlock()
	var next *Lease
	if len(results) > 0 {
		// A worker about to die or stop takes no work it will not serve.
		var err error
		if next, err = w.ack(ctx, l, results, !kill && ctx.Err() == nil); err != nil {
			// Stale lease (expired under us) or coordinator gone: the
			// unacknowledged runs belong to someone else now.
			return nil, nil
		}
	}
	if kill {
		return nil, ErrWorkerKilled
	}
	return next, nil
}

// ack acknowledges results in one CompleteRuns call when the API has it,
// asking for the worker's next lease when more is set, else one Complete per
// run, counting every run that landed.
func (w *Worker) ack(ctx context.Context, l *Lease, results []RunResult, more bool) (*Lease, error) {
	if bc, ok := w.API.(batchCompleter); ok {
		next := ""
		if more {
			next = w.ID
		}
		nl, err := bc.CompleteRuns(ctx, l.ID, l.Token, results, next)
		if err != nil {
			return nil, err
		}
		w.addCompleted(len(results))
		return nl, nil
	}
	for _, res := range results {
		if err := w.API.Complete(ctx, l.ID, l.Token, res); err != nil {
			return nil, err
		}
		w.addCompleted(1)
	}
	return nil, nil
}

func (w *Worker) addCompleted(n int) {
	w.mu.Lock()
	w.completed += n
	w.mu.Unlock()
}

// backendFor returns the campaign's warmed deterministic backend, building
// it on first sight: a fresh run-ordered Sim/Chaos with the campaign's
// warm-up requests replayed, reproducing the draw-stream position the
// sequential campaign was in when measured runs began.
func (w *Worker) backendFor(ctx context.Context, campID string, spec CampaignSpec) (backend.Backend, error) {
	w.mu.Lock()
	if w.backends == nil {
		w.backends = map[string]backend.Backend{}
	}
	if b, ok := w.backends[campID]; ok {
		w.mu.Unlock()
		return b, nil
	}
	w.mu.Unlock()

	spec = spec.withDefaults()
	b, err := spec.WorkerBackend()
	if err != nil {
		return nil, err
	}
	// Replay warm-ups exactly as core.Launcher.Run issues them: run indices
	// -1, -2, ... at campaign concurrency. Warm-up draws happen at arrival
	// (run < 1 bypasses run-ordered parking), so this consumes the same
	// stream prefix the sequential campaign consumed before run 1.
	for i := 0; i < spec.WarmupRuns; i++ {
		req := backend.Request{
			Workload:    spec.Workload,
			Concurrency: spec.Concurrency,
			Run:         -(i + 1),
			Day:         spec.Day,
		}
		if _, err := safeInvoke(ctx, b, req); err != nil && ctx.Err() != nil {
			return nil, err
		}
	}

	w.mu.Lock()
	if cached, ok := w.backends[campID]; ok {
		w.mu.Unlock()
		return cached, nil // lost a benign race; both are byte-equivalent
	}
	w.backends[campID] = b
	w.mu.Unlock()
	return b, nil
}

// compute executes one measured run on the campaign backend.
func (w *Worker) compute(ctx context.Context, b backend.Backend, spec CampaignSpec, run int) RunResult {
	req := backend.Request{
		Workload:    spec.Workload,
		Concurrency: spec.Concurrency,
		Run:         run,
		Day:         spec.Day,
	}
	invs, err := safeInvoke(ctx, b, req)
	return toWire(run, invs, err)
}

// safeInvoke recovers backend panics into whole-run errors: a chaos-injected
// (or buggy) panic inside a worker must kill at most the run, never the
// worker process serving other tenants' campaigns.
func safeInvoke(ctx context.Context, b backend.Backend, req backend.Request) (invs []backend.Invocation, err error) {
	defer func() {
		if r := recover(); r != nil {
			invs, err = nil, fmt.Errorf("service: worker panic: %v", r)
		}
	}()
	return b.Invoke(ctx, req)
}
