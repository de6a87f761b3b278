// Package faas simulates the serverless platform of the paper's stopping
// rule experiment (§V-C): a Knative-like HTTP function platform with two
// heterogeneous worker nodes (Machine 1 with an A100 and Machine 3 with an
// H100), cold-start latency, and round-robin dispatch of parallel requests
// across workers.
//
// The platform exposes a small REST API:
//
//	POST /invoke          {"workload": "...", "day": 1, "cold": false}
//	GET  /functions
//	GET  /workers
//	POST /workers/evict   {"worker": "machine1"}
//	POST /workers/admit   {"worker": "machine1"}
//	GET  /metrics
//	GET  /healthz
//
// and is consumed by the Client type, which implements backend.Backend so
// the SHARP launcher drives it exactly like any other backend.
//
// Resilience: every worker carries a circuit breaker (closed/open/half-open
// with a failure-count threshold and a probe-after-cooldown path), so the
// dispatcher routes around a failing worker instead of round-robining into
// it. Workers can also be evicted and re-admitted explicitly, the manual
// analogue of a failed health check.
package faas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sharp/internal/backend"
	"sharp/internal/machine"
	"sharp/internal/obs"
	"sharp/internal/resilience"
)

// ColdStartSeconds is the simulated container cold-start latency added to
// the first invocation of a function on a worker (and to explicit cold
// requests). The value models a small container start, consistent with the
// paper's observation that container overhead stays below 5%.
const ColdStartSeconds = 0.35

// InvokeRequest is the /invoke request body.
type InvokeRequest struct {
	Workload string `json:"workload"`
	Day      int    `json:"day"`
	Cold     bool   `json:"cold"`
	Run      int    `json:"run"`
}

// InvokeResponse is the /invoke response body.
type InvokeResponse struct {
	Worker  string             `json:"worker"`
	Cold    bool               `json:"cold"`
	Metrics map[string]float64 `json:"metrics"`
	Error   string             `json:"error,omitempty"`
}

// WorkerStatus describes one worker's health for GET /workers.
type WorkerStatus struct {
	Name    string `json:"name"`
	State   string `json:"state"` // closed | open | half-open
	Evicted bool   `json:"evicted"`
	// ConsecutiveFailures is the breaker's current failure streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
}

// worker is one platform node: an execution backend plus warm-function
// bookkeeping and a circuit breaker.
type worker struct {
	name    string
	be      backend.Backend
	breaker *resilience.Breaker
	evicted atomic.Bool
	mu      sync.Mutex
	warm    map[string]time.Time // workload -> last successful use
}

// available reports whether the worker may receive traffic. A true return
// from an open breaker consumes its half-open probe slot, so callers must
// actually dispatch to the worker and report the outcome.
func (w *worker) available() bool {
	return !w.evicted.Load() && w.breaker.Allow()
}

// Platform is the simulated FaaS control plane.
type Platform struct {
	workers []*worker
	next    atomic.Uint64
	// IdleTimeout is how long a function instance stays warm (0 = forever).
	IdleTimeout time.Duration
	now         func() time.Time

	// metrics is the platform's own registry, served at GET /metrics.
	metrics *obs.Registry

	// tmu guards tracer.
	tmu    sync.Mutex
	tracer obs.Tracer
}

// NewPlatform builds a platform over the given machines (typically
// machine.GPUMachines(): Machines 1 and 3) with default circuit breakers
// (3 consecutive failures to open, 5 s cooldown).
func NewPlatform(machines []*machine.Machine, seed uint64) *Platform {
	p := &Platform{now: time.Now, metrics: obs.NewRegistry()}
	for i, m := range machines {
		p.workers = append(p.workers, &worker{
			name:    m.Name,
			be:      backend.NewSim(m, seed+uint64(i)*7919),
			breaker: p.newBreaker(m.Name, resilience.BreakerConfig{}),
			warm:    map[string]time.Time{},
		})
	}
	return p
}

// SetTracer installs the campaign event tracer on the platform and on every
// worker's backend decorator chain (nil disables emission).
func (p *Platform) SetTracer(t obs.Tracer) {
	p.tmu.Lock()
	p.tracer = t
	p.tmu.Unlock()
	for _, w := range p.workers {
		backend.SetTracer(w.be, t)
	}
}

// emit sends one platform event to the installed tracer.
func (p *Platform) emit(typ string, fields map[string]any) {
	p.tmu.Lock()
	t := p.tracer
	p.tmu.Unlock()
	obs.Emit(t, typ, fields)
}

// newBreaker builds a worker breaker whose transitions feed the platform's
// metrics and event stream, chaining any caller-provided callback.
func (p *Platform) newBreaker(name string, cfg resilience.BreakerConfig) *resilience.Breaker {
	user := cfg.OnTransition
	cfg.OnTransition = func(from, to resilience.State) {
		p.metrics.Counter("sharp_faas_breaker_transitions_total",
			"Worker circuit-breaker state transitions.",
			"worker", name, "to", to.String()).Inc()
		p.emit(obs.EventBreakerTransition, map[string]any{
			"name": name, "from": from.String(), "to": to.String(),
		})
		if user != nil {
			user(from, to)
		}
	}
	return resilience.NewBreaker(cfg)
}

// WorkerNames lists the platform's worker machines.
func (p *Platform) WorkerNames() []string {
	out := make([]string, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.name
	}
	return out
}

// Workers reports every worker's health status.
func (p *Platform) Workers() []WorkerStatus {
	out := make([]WorkerStatus, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerStatus{
			Name:                w.name,
			State:               w.breaker.State().String(),
			Evicted:             w.evicted.Load(),
			ConsecutiveFailures: w.breaker.ConsecutiveFailures(),
		}
	}
	return out
}

// Evict removes the named worker from dispatch until Admit is called (the
// manual health-check path). It reports whether the worker exists.
func (p *Platform) Evict(name string) bool {
	for _, w := range p.workers {
		if w.name == name {
			w.evicted.Store(true)
			return true
		}
	}
	return false
}

// Admit re-admits a previously evicted worker and resets its breaker, so it
// rejoins dispatch with a clean slate.
func (p *Platform) Admit(name string) bool {
	for _, w := range p.workers {
		if w.name == name {
			w.evicted.Store(false)
			w.breaker.Success()
			return true
		}
	}
	return false
}

// pickWorker selects the next available worker round-robin, skipping
// evicted workers and those whose breaker rejects traffic. It returns nil
// when no worker is available.
func (p *Platform) pickWorker() *worker {
	if len(p.workers) == 0 {
		return nil
	}
	start := int(p.next.Add(1) - 1)
	for i := 0; i < len(p.workers); i++ {
		w := p.workers[(start+i)%len(p.workers)]
		if w.available() {
			return w
		}
	}
	return nil
}

// Do dispatches one request round-robin across the available workers and
// returns the response. It is the platform's core operation; the HTTP
// handler wraps it, and in-process experiments call it directly.
//
// Failure handling: a failed invocation feeds the worker's circuit breaker
// (routing future requests around it) and does NOT mark the function warm —
// cold-start bookkeeping only advances on success.
func (p *Platform) Do(ctx context.Context, req InvokeRequest) InvokeResponse {
	w := p.pickWorker()
	if w == nil {
		p.metrics.Counter("sharp_faas_invocations_total",
			"FaaS invocations dispatched by the platform.",
			"worker", "none", "status", "unavailable").Inc()
		p.emit(obs.EventFaasInvoke, map[string]any{
			"worker": "", "workload": req.Workload, "status": "unavailable", "cold": false,
		})
		if len(p.workers) == 0 {
			return InvokeResponse{Error: "faas: no workers"}
		}
		return InvokeResponse{Error: "faas: no available workers (all evicted or circuit-broken)"}
	}

	// Cold-start accounting: observe only; the warm timestamp is updated
	// after a successful invocation.
	w.mu.Lock()
	last, warm := w.warm[req.Workload]
	now := p.now()
	isCold := req.Cold || !warm ||
		(p.IdleTimeout > 0 && now.Sub(last) > p.IdleTimeout)
	w.mu.Unlock()

	invs, err := w.be.Invoke(ctx, backend.Request{
		Workload: req.Workload,
		Day:      req.Day,
		Run:      req.Run,
	})
	if err == nil && (len(invs) == 0 || invs[0].Err != nil) {
		if len(invs) == 0 {
			err = fmt.Errorf("faas: worker %s returned no invocations", w.name)
		} else {
			err = invs[0].Err
		}
	}
	if err != nil {
		// Unknown workloads are caller errors, not worker failures: they
		// must not open the breaker.
		if !errors.Is(err, backend.ErrUnknownWorkload) {
			w.breaker.Failure()
		}
		p.metrics.Counter("sharp_faas_invocations_total",
			"FaaS invocations dispatched by the platform.",
			"worker", w.name, "status", "error").Inc()
		p.emit(obs.EventFaasInvoke, map[string]any{
			"worker": w.name, "workload": req.Workload, "status": "error", "cold": isCold,
		})
		return InvokeResponse{Worker: w.name, Error: err.Error()}
	}
	w.breaker.Success()
	w.mu.Lock()
	w.warm[req.Workload] = p.now()
	w.mu.Unlock()

	metrics := invs[0].Metrics
	if metrics == nil {
		metrics = map[string]float64{}
	}
	if isCold {
		metrics["cold_start"] = 1
		metrics[backend.MetricExecTime] += ColdStartSeconds
		p.metrics.Counter("sharp_faas_cold_starts_total",
			"Cold-start invocations.", "worker", w.name).Inc()
	} else {
		metrics["cold_start"] = 0
	}
	p.metrics.Counter("sharp_faas_invocations_total",
		"FaaS invocations dispatched by the platform.",
		"worker", w.name, "status", "ok").Inc()
	p.metrics.Histogram("sharp_faas_exec_time_seconds",
		"Reported execution time of successful invocations.",
		nil, "worker", w.name).Observe(metrics[backend.MetricExecTime])
	p.emit(obs.EventFaasInvoke, map[string]any{
		"worker": w.name, "workload": req.Workload, "status": "ok", "cold": isCold,
	})
	return InvokeResponse{
		Worker:  w.name,
		Cold:    isCold,
		Metrics: metrics,
	}
}

// workerRequest is the body of the evict/admit endpoints.
type workerRequest struct {
	Worker string `json:"worker"`
}

// Handler returns the platform's HTTP handler.
func (p *Platform) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", func(rw http.ResponseWriter, r *http.Request) {
		var req InvokeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, fmt.Sprintf("faas: bad request: %v", err), http.StatusBadRequest)
			return
		}
		if req.Workload == "" {
			http.Error(rw, "faas: missing workload", http.StatusBadRequest)
			return
		}
		resp := p.Do(r.Context(), req)
		rw.Header().Set("Content-Type", "application/json")
		if resp.Error != "" {
			status := http.StatusNotFound
			if resp.Worker == "" { // no worker even attempted the request
				status = http.StatusServiceUnavailable
			}
			rw.WriteHeader(status)
		}
		json.NewEncoder(rw).Encode(resp)
	})
	mux.HandleFunc("GET /functions", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(map[string]any{
			"workers": p.WorkerNames(),
		})
	})
	mux.HandleFunc("GET /workers", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(map[string]any{
			"workers": p.Workers(),
		})
	})
	workerAction := func(action func(string) bool) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) {
			var req workerRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
				http.Error(rw, "faas: bad request: expected {\"worker\": \"name\"}", http.StatusBadRequest)
				return
			}
			if !action(req.Worker) {
				http.Error(rw, fmt.Sprintf("faas: unknown worker %q", req.Worker), http.StatusNotFound)
				return
			}
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(map[string]any{"workers": p.Workers()})
		}
	}
	mux.HandleFunc("POST /workers/evict", workerAction(p.Evict))
	mux.HandleFunc("POST /workers/admit", workerAction(p.Admit))
	mux.Handle("GET /metrics", p.metrics.Handler())
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	})
	return mux
}
