package faas

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/machine"
	"sharp/internal/resilience"
)

// configureBreakers replaces every worker's circuit breaker with one built
// from cfg (short cooldowns, fake clocks). The platform's observability
// hooks are preserved: cfg.OnTransition, if set, is invoked after them.
func (p *Platform) configureBreakers(cfg resilience.BreakerConfig) {
	for _, w := range p.workers {
		w.breaker = p.newBreaker(w.name, cfg)
	}
}

// wrapWorkers decorates each worker's execution backend (fault injection).
func (p *Platform) wrapWorkers(wrap func(name string, b backend.Backend) backend.Backend) {
	for _, w := range p.workers {
		w.be = wrap(w.name, w.be)
	}
}

// workerState returns the circuit-breaker state of the named worker.
func (p *Platform) workerState(name string) (resilience.State, bool) {
	for _, w := range p.workers {
		if w.name == name {
			return w.breaker.State(), true
		}
	}
	return 0, false
}

// failerBackend wraps a backend and fails every invocation while tripped.
type failerBackend struct {
	inner   backend.Backend
	tripped atomic.Bool
	calls   atomic.Int64
}

func (f *failerBackend) Name() string { return f.inner.Name() }
func (f *failerBackend) Close() error { return f.inner.Close() }
func (f *failerBackend) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	f.calls.Add(1)
	if f.tripped.Load() {
		return nil, errors.New("induced worker failure")
	}
	return f.inner.Invoke(ctx, req)
}

func TestClientNon200NonJSONBody(t *testing.T) {
	// A proxy-style error page: plain text, no JSON. The client must surface
	// the status code, not a JSON decoding error.
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "Bad Gateway: upstream burst into flames", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	_, err := c.Invoke(context.Background(), backend.Request{Workload: "w", Run: 1})
	if err == nil {
		t.Fatal("no error for 502 response")
	}
	if !strings.Contains(err.Error(), "status 502") {
		t.Errorf("status code missing from error: %v", err)
	}
	if strings.Contains(err.Error(), "decoding response") {
		t.Errorf("non-JSON body reported as decode failure: %v", err)
	}
	if !strings.Contains(err.Error(), "flames") {
		t.Errorf("body excerpt missing from error: %v", err)
	}
}

func TestClientNon200JSONErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusNotFound)
		json.NewEncoder(rw).Encode(InvokeResponse{Error: "backend: unknown workload"})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	_, err := c.Invoke(context.Background(), backend.Request{Workload: "w", Run: 1})
	if err == nil || !strings.Contains(err.Error(), "status 404") ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}

func TestColdAfterFailure(t *testing.T) {
	// Satellite (d): a failed invocation must not mark the function warm.
	p := NewPlatform(machine.GPUMachines()[:1], 7)
	var failer *failerBackend
	p.wrapWorkers(func(name string, b backend.Backend) backend.Backend {
		failer = &failerBackend{inner: b}
		return failer
	})

	failer.tripped.Store(true)
	resp := p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: 1})
	if resp.Error == "" {
		t.Fatal("tripped worker succeeded")
	}
	failer.tripped.Store(false)
	resp = p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: 2})
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp.Metrics["cold_start"] != 1 {
		t.Error("function warm after a failed invocation; warm bookkeeping must only advance on success")
	}
	// And after the success, the next call is warm.
	resp = p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: 3})
	if resp.Error != "" || resp.Metrics["cold_start"] != 0 {
		t.Errorf("third invocation: %+v", resp)
	}
}

func TestBreakerRoutesAroundFailingWorker(t *testing.T) {
	p := NewPlatform(machine.GPUMachines(), 42) // machine1, machine3
	clk := time.Unix(0, 0)
	p.configureBreakers(resilience.BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Minute,
		Now:              func() time.Time { return clk },
	})
	var failers []*failerBackend
	p.wrapWorkers(func(name string, b backend.Backend) backend.Backend {
		f := &failerBackend{inner: b}
		if name == "machine1" {
			f.tripped.Store(true)
		}
		failers = append(failers, f)
		return f
	})

	// Drive requests: machine1 fails until its breaker opens; afterwards all
	// traffic lands on machine3.
	failures := 0
	for run := 1; run <= 12; run++ {
		resp := p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: run})
		if resp.Error != "" {
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("failures before the breaker opened = %d, want 3 (threshold)", failures)
	}
	if st, _ := p.workerState("machine1"); st != resilience.Open {
		t.Fatalf("machine1 breaker = %v, want open", st)
	}
	if st, _ := p.workerState("machine3"); st != resilience.Closed {
		t.Fatalf("machine3 breaker = %v, want closed", st)
	}
	m1Calls := failers[0].calls.Load()

	// With the breaker open, machine1 receives no traffic.
	for run := 13; run <= 20; run++ {
		if resp := p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: run}); resp.Error != "" {
			t.Fatalf("run %d failed with machine3 available: %s", run, resp.Error)
		}
	}
	if got := failers[0].calls.Load(); got != m1Calls {
		t.Fatalf("open breaker leaked %d requests to machine1", got-m1Calls)
	}

	// Cooldown elapses while the worker is still broken: the single half-open
	// probe fails and re-opens the breaker; the request still errors (probe).
	clk = clk.Add(time.Minute)
	probeFailed := false
	for run := 21; run <= 24; run++ {
		if resp := p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: run}); resp.Error != "" {
			probeFailed = true
		}
	}
	if !probeFailed {
		t.Fatal("half-open probe never reached machine1")
	}
	if st, _ := p.workerState("machine1"); st != resilience.Open {
		t.Fatalf("failed probe left breaker %v, want open", st)
	}

	// Worker heals; next cooldown's probe succeeds and closes the breaker.
	failers[0].tripped.Store(false)
	clk = clk.Add(time.Minute)
	for run := 25; run <= 28; run++ {
		if resp := p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: run}); resp.Error != "" {
			t.Fatalf("run %d failed after heal: %s", run, resp.Error)
		}
	}
	if st, _ := p.workerState("machine1"); st != resilience.Closed {
		t.Fatalf("healed worker breaker = %v, want closed", st)
	}
}

func TestAllWorkersBrokenReturns503(t *testing.T) {
	p := NewPlatform(machine.GPUMachines(), 42)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	for _, name := range p.WorkerNames() {
		p.Evict(name)
	}
	resp, err := http.Post(srv.URL+"/invoke", "application/json",
		strings.NewReader(`{"workload": "bfs-CUDA"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	c := NewClient(srv.URL)
	if _, err := c.Invoke(context.Background(), backend.Request{Workload: "bfs-CUDA", Run: 1}); err == nil ||
		!strings.Contains(err.Error(), "no available workers") {
		t.Fatalf("client err = %v", err)
	}
}

func TestEvictAdmitHTTP(t *testing.T) {
	p := NewPlatform(machine.GPUMachines(), 42)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b := make([]byte, 4096)
		n, _ := resp.Body.Read(b)
		return resp.StatusCode, string(b[:n])
	}

	status, body := post("/workers/evict", `{"worker": "machine1"}`)
	if status != http.StatusOK {
		t.Fatalf("evict status = %d body %s", status, body)
	}
	ws := p.Workers()
	if !ws[0].Evicted {
		t.Fatal("machine1 not evicted")
	}
	// All traffic now goes to machine3.
	resp := p.Do(context.Background(), InvokeRequest{Workload: "bfs-CUDA", Run: 1})
	if resp.Worker != "machine3" {
		t.Fatalf("worker = %q after eviction", resp.Worker)
	}

	status, _ = post("/workers/admit", `{"worker": "machine1"}`)
	if status != http.StatusOK {
		t.Fatal("admit failed")
	}
	if p.Workers()[0].Evicted {
		t.Fatal("machine1 still evicted after admit")
	}

	// Unknown worker and bad body.
	if status, _ = post("/workers/evict", `{"worker": "ghost"}`); status != http.StatusNotFound {
		t.Fatalf("ghost evict status = %d", status)
	}
	if status, _ = post("/workers/evict", `{}`); status != http.StatusBadRequest {
		t.Fatalf("empty evict status = %d", status)
	}

	// GET /workers reports breaker state.
	hresp, err := http.Get(srv.URL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var listing struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Workers) != 2 || listing.Workers[0].State != "closed" {
		t.Fatalf("workers listing = %+v", listing.Workers)
	}
}

func TestClientStallThenRecoverUnderRetry(t *testing.T) {
	// Satellite (e): a platform that stalls (times out) for the first two
	// requests and then recovers; a retry-wrapped client completes.
	var calls atomic.Int64
	p := NewPlatform(machine.GPUMachines()[:1], 7)
	inner := p.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/invoke" && calls.Add(1) <= 2 {
			// Stall far beyond the client's per-request timeout. Drain the
			// body so the server detects the client abandoning the request.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	wrapped := resilience.Wrap(c, resilience.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		Seed:        1,
	})
	invs, err := wrapped.Invoke(context.Background(), backend.Request{
		Workload: "bfs-CUDA",
		Run:      1,
		Timeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("retry-wrapped client did not recover: %v", err)
	}
	if invs[0].Err != nil {
		t.Fatalf("final invocation failed: %v", invs[0].Err)
	}
	if invs[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two stalls + success)", invs[0].Attempts)
	}
	if calls.Load() != 3 {
		t.Errorf("platform saw %d requests, want 3", calls.Load())
	}
}
