package service

import (
	"context"
	"errors"
	"strings"

	"sharp/internal/backend"
)

// dispatchBackend is the coordinator-side backend for a service campaign:
// Invoke enqueues the measured run as a task and blocks until some worker's
// lease completes it (possibly a different worker than the one first leased
// it — reassignment is invisible here). The launcher on top neither knows
// nor cares that runs execute remotely; its ordered merge plus the workers'
// run-addressable backends make the row stream byte-identical to a local
// sequential campaign.
//
// Name returns "sim" because rows record Backend = e.Backend.Name() and the
// workers really do execute on the Sim backend (Chaos is name-transparent
// the same way): the dispatch layer is plumbing, not provenance.
type dispatchBackend struct {
	campID string
	sched  *scheduler
}

func (d *dispatchBackend) Name() string { return "sim" }

// Invoke dispatches a measured run. A warm-up request (run < 1) is a no-op:
// warm-ups run on each worker's fresh backend (Worker.backendFor), where
// they put the draw stream where the sequential campaign's was.
func (d *dispatchBackend) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	if req.Run < 1 {
		return nil, nil
	}
	t := &task{
		campID: d.campID,
		run:    req.Run,
		result: make(chan RunResult, 1),
	}
	d.sched.enqueue(t)
	select {
	case res := <-t.result:
		return res.reconstruct()
	case <-ctx.Done():
		// Abandon, don't dequeue: the task may be inside a live lease. The
		// scheduler skips abandoned tasks at the next lease formation, and a
		// late completion lands in the buffered channel harmlessly.
		t.abandon()
		return nil, ctx.Err()
	}
}

func (d *dispatchBackend) Close() error { return nil }

// reconstruct rebuilds the ([]backend.Invocation, error) a local backend
// would have returned. Errors crossed the wire as strings; processRun folds
// an invocation error into the row stream through err.Error() alone, so
// errors.New round-trips byte-identically. The one semantic (not just
// textual) error core inspects with errors.Is is backend.ErrUnknownWorkload
// — wireErr restores that identity so core aborts the campaign exactly as
// it would locally.
func (r RunResult) reconstruct() ([]backend.Invocation, error) {
	invs := make([]backend.Invocation, len(r.Invocations))
	for i, wi := range r.Invocations {
		inv := backend.Invocation{
			Instance: wi.Instance,
			Worker:   wi.Worker,
			Metrics:  wi.Metrics,
			Err:      wireErr(wi.Err),
			Attempts: wi.Attempts,
		}
		if inv.Metrics == nil {
			inv.Metrics = map[string]float64{}
		}
		invs[i] = inv
	}
	return invs, wireErr(r.Err)
}

// toWire converts a local backend's result for transport.
func toWire(run int, invs []backend.Invocation, err error) RunResult {
	out := RunResult{Run: run, Invocations: make([]InvResult, len(invs))}
	if err != nil {
		out.Err = err.Error()
	}
	for i, inv := range invs {
		wi := InvResult{
			Instance: inv.Instance,
			Worker:   inv.Worker,
			Metrics:  inv.Metrics,
			Attempts: inv.Attempts,
		}
		if inv.Err != nil {
			wi.Err = inv.Err.Error()
		}
		out.Invocations[i] = wi
	}
	return out
}

// sentinelErr carries a wire error message verbatim while restoring
// errors.Is identity with a known sentinel.
type sentinelErr struct {
	msg string
	is  error
}

func (e *sentinelErr) Error() string { return e.msg }

func (e *sentinelErr) Is(target error) bool { return target == e.is }

// wireErr rebuilds an error from its wire string ("" = nil), re-attaching
// sentinel identity where core checks it.
func wireErr(msg string) error {
	if msg == "" {
		return nil
	}
	if strings.Contains(msg, backend.ErrUnknownWorkload.Error()) {
		return &sentinelErr{msg: msg, is: backend.ErrUnknownWorkload}
	}
	return errors.New(msg)
}
