package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/obs"
)

// leaseFixture returns a coordinator holding one live lease of runs 1..n of
// campaign "c1", granted to worker "w1", plus the tasks it carries. The
// lease is the coordinator's first, so its token is 1.
func leaseFixture(t testing.TB, dir string, n int) (*Coordinator, *Lease, []*task) {
	t.Helper()
	c, err := New(Config{DataDir: dir, LeaseTTL: time.Minute, BatchSize: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.sched.register("c1", baseSpec("fixed", float64(n), 1, nil))
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{campID: "c1", run: i + 1, result: make(chan RunResult, 1)}
		c.sched.enqueue(tasks[i])
	}
	l, err := c.sched.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	return c, l, tasks
}

// outstanding returns the runs the lease still holds (nil once it is gone).
func outstanding(c *Coordinator, leaseID string) []int {
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
	l, ok := c.sched.leases[leaseID]
	if !ok {
		return nil
	}
	runs := make([]int, 0, len(l.tasks))
	for run := range l.tasks {
		runs = append(runs, run)
	}
	sort.Ints(runs)
	return runs
}

// delivered counts the tasks a completion has delivered a result to.
func delivered(tasks []*task) int {
	n := 0
	for _, t := range tasks {
		n += len(t.result)
	}
	return n
}

// postComplete sends body to the lease's complete endpoint and returns the
// status code.
func postComplete(h http.Handler, leaseID string, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, "/leases/"+leaseID+"/complete", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestCompleteEndpointRejectsBadBatches: a batch completion is
// all-or-nothing. Each malformed batch gets 400 and leaves every run
// outstanding with nothing delivered; a correct retry with the same token
// then settles the whole lease.
func TestCompleteEndpointRejectsBadBatches(t *testing.T) {
	bad := []struct{ name, body string }{
		{"malformed", `{"token":1,"results":[{"run":1}`},
		{"empty", `{"token":1,"results":[]}`},
		{"foreign run", `{"token":1,"results":[{"run":1},{"run":7}]}`},
		{"duplicate run", `{"token":1,"results":[{"run":2},{"run":2}]}`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			c, l, tasks := leaseFixture(t, t.TempDir(), 3)
			h := Handler(c)
			if code := postComplete(h, l.ID, []byte(tc.body)); code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", code)
			}
			if got := outstanding(c, l.ID); !reflect.DeepEqual(got, []int{1, 2, 3}) {
				t.Fatalf("outstanding after rejection = %v, want [1 2 3]", got)
			}
			if n := delivered(tasks); n != 0 {
				t.Fatalf("rejected batch delivered %d results", n)
			}
			retry := `{"token":1,"results":[{"run":1},{"run":2},{"run":3}]}`
			if code := postComplete(h, l.ID, []byte(retry)); code != http.StatusNoContent {
				t.Fatalf("retry status = %d, want 204", code)
			}
			if got := outstanding(c, l.ID); got != nil {
				t.Fatalf("lease still holds %v after a full completion", got)
			}
			if n := delivered(tasks); n != 3 {
				t.Fatalf("retry delivered %d results, want 3", n)
			}
		})
	}
}

// TestCompleteRunsOverHTTP drives batch completion through Client: a stale
// token is 409 and ErrStaleLease on the client side, a partial batch leaves
// exactly the rest outstanding, and backend.ErrUnknownWorkload keeps its
// identity through a batched round trip into the dispatch backend, so the
// launcher aborts the campaign as it would locally.
func TestCompleteRunsOverHTTP(t *testing.T) {
	c, l, tasks := leaseFixture(t, t.TempDir(), 3)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	cl := NewHTTPClient(srv.URL)
	ctx := context.Background()

	if code := postComplete(Handler(c), l.ID, []byte(`{"token":2,"results":[{"run":1}]}`)); code != http.StatusConflict {
		t.Errorf("stale token status = %d, want 409", code)
	}
	_, err := cl.CompleteRuns(ctx, l.ID, l.Token+1, []RunResult{{Run: 1}}, "")
	if !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale token over Client = %v, want ErrStaleLease", err)
	}
	if _, err := cl.CompleteRuns(ctx, "l999999", l.Token, []RunResult{{Run: 1}}, ""); !errors.Is(err, ErrStaleLease) {
		t.Errorf("unknown lease over Client = %v, want ErrStaleLease", err)
	}
	if n := delivered(tasks); n != 0 {
		t.Fatalf("stale completions delivered %d results", n)
	}

	if _, err := cl.CompleteRuns(ctx, l.ID, l.Token, []RunResult{{Run: 3}, {Run: 1}}, ""); err != nil {
		t.Fatal(err)
	}
	if got := outstanding(c, l.ID); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("outstanding after partial batch = %v, want [2]", got)
	}
	if err := cl.Complete(ctx, l.ID, l.Token, RunResult{Run: 2}); err != nil {
		t.Fatal(err)
	}
	if got := outstanding(c, l.ID); got != nil {
		t.Fatalf("lease still holds %v", got)
	}

	// Sentinel identity through a batch, end to end: the dispatch backend
	// blocks on run 1 of campaign c2 until a batched HTTP completion lands.
	c.sched.register("c2", baseSpec("fixed", 2, 1, nil))
	db := &dispatchBackend{campID: "c2", sched: c.sched}
	type invoked struct {
		invs []backend.Invocation
		err  error
	}
	got := make(chan invoked, 1)
	go func() {
		invs, err := db.Invoke(ctx, backend.Request{Run: 1})
		got <- invoked{invs, err}
	}()
	var l2 *Lease
	deadline := time.Now().Add(5 * time.Second)
	for l2 == nil {
		l2, err = cl.Lease(ctx, "w2")
		if err != nil && !errors.Is(err, ErrNoWork) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatched run never became leaseable")
		}
	}
	unknown := fmt.Errorf("%w: %q", backend.ErrUnknownWorkload, "nope").Error()
	res := RunResult{Run: 1, Err: unknown, Invocations: []InvResult{{Instance: 0, Err: unknown}}}
	if _, err := cl.CompleteRuns(ctx, l2.ID, l2.Token, []RunResult{res}, ""); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if !errors.Is(r.err, backend.ErrUnknownWorkload) || r.err.Error() != unknown {
		t.Errorf("request error = %v, want ErrUnknownWorkload identity with the original text", r.err)
	}
	if len(r.invs) != 1 || !errors.Is(r.invs[0].Err, backend.ErrUnknownWorkload) {
		t.Errorf("invocation errors = %+v, want ErrUnknownWorkload identity", r.invs)
	}
}

// TestClientReusesConnections: each Client owns its connection pool, so
// several clients in one process hammering one coordinator keep their
// connections instead of overflowing a shared idle pool and redialing.
func TestClientReusesConnections(t *testing.T) {
	coord, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(Handler(coord))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	const clients, trips = 3, 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl := NewHTTPClient(srv.URL)
		id := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.HTTPClient.CloseIdleConnections()
			for k := 0; k < trips; k++ {
				if _, err := cl.Lease(context.Background(), id); !errors.Is(err, ErrNoWork) {
					t.Errorf("lease %d of %s = %v, want ErrNoWork", k, id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := dials.Load(); n > clients {
		t.Errorf("%d clients opened %d connections over %d round trips each, want at most one each", clients, n, trips)
	}
}

// TestHTTPCampaignSendsOneCompletePerLease is the protocol regression guard:
// over HTTP, a worker settles each lease with exactly one complete request,
// however many runs the lease carries.
func TestHTTPCampaignSendsOneCompletePerLease(t *testing.T) {
	spec := baseSpec("fixed", 12, 3, nil)
	want, refRes := referenceCSV(t, spec)
	reg := obs.NewRegistry()
	cfg := testConfig(t.TempDir())
	cfg.Registry = reg
	cfg.BatchSize = 3
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var completes atomic.Int64
	h := Handler(coord)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/complete") {
			completes.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := []string{"hw1", "hw2"}
	var exits []<-chan error
	for _, id := range workers {
		exits = append(exits, spawnWorker(ctx, &Worker{ID: id, API: NewHTTPClient(srv.URL)}))
	}
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, coord, id)
	if st.State != "done" || st.Runs != refRes.Runs {
		t.Fatalf("campaign = %s with %d runs, want done with %d", st.State, st.Runs, refRes.Runs)
	}
	if got := readCSV(t, coord.ResultCSVPath(id)); !bytes.Equal(got, want) {
		t.Fatal("CSV differs from sequential reference")
	}

	// No lease is granted once the campaign is done; wait for the last
	// granted lease to be settled, then stop the workers between leases.
	leases := func() int64 {
		var n float64
		for _, w := range workers {
			n += reg.Counter("sharp_service_leases_total", "", "worker", w).Value()
		}
		return int64(n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for completes.Load() < leases() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	for _, done := range exits {
		<-done
	}
	if c, l := completes.Load(), leases(); c != l {
		t.Fatalf("%d complete requests for %d leases, want one per lease", c, l)
	}
	t.Logf("%d runs: %d leases, %d complete requests", st.Runs, leases(), completes.Load())
}

// perRunAPI hides CompleteRuns: a decorator implementing only WorkerAPI's
// three methods, as code outside the package may.
type perRunAPI struct{ WorkerAPI }

// TestWorkerFallsBackToPerRunComplete: a worker whose API lacks
// CompleteRuns acknowledges one run per Complete, keeps KillAfter exact with
// the cut inside a lease, and the campaign stays byte-identical.
func TestWorkerFallsBackToPerRunComplete(t *testing.T) {
	const cut = 5
	spec := baseSpec("fixed", 10, 3, chaosOn)
	want, _ := referenceCSV(t, spec)
	coord, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	killer := &Worker{ID: "killer", API: perRunAPI{coord}, KillAfter: cut}
	select {
	case err := <-spawnWorker(ctx, killer):
		if !errors.Is(err, ErrWorkerKilled) {
			t.Fatalf("killer exited with %v, want ErrWorkerKilled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killer never reached its cut point")
	}
	if got := killer.completedRuns(); got != cut {
		t.Fatalf("killer completed %d runs, want exactly %d", got, cut)
	}
	spawnWorker(ctx, &Worker{ID: "healthy", API: perRunAPI{coord}})
	if st := waitDone(t, coord, id); st.State != "done" {
		t.Fatalf("campaign state = %q (%s)", st.State, st.Error)
	}
	if got := readCSV(t, coord.ResultCSVPath(id)); !bytes.Equal(got, want) {
		t.Error("CSV through per-run completions differs from reference")
	}
}

// statusRecorder remembers the status a handler answered with.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// withoutNext strips "next" from completion bodies before h sees them: a
// coordinator that predates the field, which ignores it and answers 204.
func withoutNext(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/complete") {
			var body map[string]json.RawMessage
			if raw, err := io.ReadAll(r.Body); err == nil && json.Unmarshal(raw, &body) == nil {
				delete(body, "next")
				raw, _ = json.Marshal(body)
				r.Body = io.NopCloser(bytes.NewReader(raw))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestHTTPLeasesRideOnCompletes is the one-request-per-lease guard: over
// HTTP, with several campaigns in flight as in the repository benchmark,
// every granted lease is a 200 answer to /lease or to /complete, and most
// arrive on /complete, so a busy worker makes one round trip per lease.
// Against a coordinator that ignores "next" the same workers fall back to
// /lease for every lease. Every result stays byte-identical to its
// sequential reference either way. Each campaign keeps two leases' worth of
// runs in flight, so an acknowledgment finds work queued even when the
// coordinator, not the workers, is the slower side (as under -race).
func TestHTTPLeasesRideOnCompletes(t *testing.T) {
	specs := make([]CampaignSpec, 4)
	wants := make([][]byte, len(specs))
	for i := range specs {
		specs[i] = baseSpec("fixed", 60, 6, nil)
		specs[i].MaxRuns = 60
		specs[i].Seed = uint64(40 + i)
		if i%2 == 1 {
			specs[i].Tenant = "globex"
		}
		wants[i], _ = referenceCSV(t, specs[i])
	}
	for _, old := range []bool{false, true} {
		t.Run(fmt.Sprintf("old_server=%v", old), func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := testConfig(t.TempDir())
			cfg.Registry = reg
			cfg.LeaseTTL = 2 * time.Second
			coord, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			var leased, acked atomic.Int64 // 200 answers to /lease and /complete
			h := Handler(coord)
			if old {
				h = withoutNext(h)
			}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
				h.ServeHTTP(rec, r)
				switch {
				case rec.code != http.StatusOK || r.Method != http.MethodPost:
				case r.URL.Path == "/lease":
					leased.Add(1)
				case strings.HasSuffix(r.URL.Path, "/complete"):
					acked.Add(1)
				}
			}))
			defer srv.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			workers := []string{"hw1", "hw2"}
			var exits []<-chan error
			for _, id := range workers {
				exits = append(exits, spawnWorker(ctx, &Worker{ID: id, API: NewHTTPClient(srv.URL), Poll: time.Millisecond}))
			}
			ids := make([]string, len(specs))
			for i, spec := range specs {
				if ids[i], err = coord.Submit(spec); err != nil {
					t.Fatal(err)
				}
			}
			for i, id := range ids {
				if st := waitDone(t, coord, id); st.State != "done" {
					t.Fatalf("campaign %s = %s (%s)", id, st.State, st.Error)
				}
				if got := readCSV(t, coord.ResultCSVPath(id)); !bytes.Equal(got, wants[i]) {
					t.Fatalf("campaign %s: CSV differs from sequential reference", id)
				}
			}
			cancel()
			for _, done := range exits {
				<-done
			}
			srv.Close() // waits for every handler, so the counts are final

			var total float64
			for _, w := range workers {
				total += reg.Counter("sharp_service_leases_total", "", "worker", w).Value()
			}
			l, a := leased.Load(), acked.Load()
			t.Logf("%.0f leases: %d on /lease, %d on /complete", total, l, a)
			if float64(l+a) != total {
				t.Fatalf("%d + %d leases answered, %.0f granted", l, a, total)
			}
			if old {
				if a != 0 {
					t.Fatalf("a coordinator ignoring next granted %d leases on /complete", a)
				}
				return
			}
			if 2*a <= l+a {
				t.Fatalf("%d of %d leases arrived on /complete, want most", a, l+a)
			}
		})
	}
}

// ackSpy is the in-process coordinator with its batch acknowledgment
// observed: it records the next worker each acknowledgment names and hands
// every lease that rides back to onLease.
type ackSpy struct {
	*Coordinator
	onLease func(*Lease)

	mu    sync.Mutex
	nexts []string
}

func (a *ackSpy) CompleteRuns(ctx context.Context, leaseID string, token uint64, results []RunResult, next string) (*Lease, error) {
	l, err := a.Coordinator.CompleteRuns(ctx, leaseID, token, results, next)
	a.mu.Lock()
	a.nexts = append(a.nexts, next)
	a.mu.Unlock()
	if l != nil && a.onLease != nil {
		a.onLease(l)
	}
	return l, err
}

// TestWorkerCancelledHoldingPiggybackedLease: a worker cancelled right after
// an acknowledgment brought it a lease exits without serving it. The lease
// expires, its runs are re-leased to a colleague, and the result is
// byte-identical to the sequential reference.
func TestWorkerCancelledHoldingPiggybackedLease(t *testing.T) {
	spec := baseSpec("fixed", 20, 4, chaosOn)
	want, refRes := referenceCSV(t, spec)
	reg := obs.NewRegistry()
	cfg := testConfig(t.TempDir())
	cfg.Registry = reg
	cfg.BatchSize = 2
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	hctx, stop := context.WithCancel(context.Background())
	defer stop()
	var held *Lease
	spy := &ackSpy{Coordinator: coord, onLease: func(l *Lease) {
		if held == nil {
			held = l
			stop()
		}
	}}
	select {
	case err := <-spawnWorker(hctx, &Worker{ID: "holder", API: spy}):
		if err != nil {
			t.Fatalf("cancelled worker exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not stop")
	}
	if held == nil {
		t.Fatal("no lease rode back on an acknowledgment")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spawnWorker(ctx, &Worker{ID: "healthy", API: coord})
	st := waitDone(t, coord, id)
	if st.State != "done" || st.Runs != refRes.Runs {
		t.Fatalf("campaign = %s with %d runs (%s), want done with %d", st.State, st.Runs, st.Error, refRes.Runs)
	}
	if got := readCSV(t, coord.ResultCSVPath(id)); !bytes.Equal(got, want) {
		t.Error("CSV after a worker left holding a lease differs from reference")
	}
	if v := reg.Counter("sharp_service_lease_expiries_total", "", "worker", "holder").Value(); v < 1 {
		t.Error("the held lease never expired")
	}
	if v := reg.Counter("sharp_service_runs_reassigned_total", "").Value(); v < float64(len(held.Runs)) {
		t.Errorf("%.0f runs reassigned, want at least the %d the held lease carried", v, len(held.Runs))
	}
}

// TestKillAfterWorkerAsksNoNextLease: the acknowledgment that carries a
// KillAfter worker's cut names no next worker, so the worker dies holding
// only the lease with its unacknowledged suffix, and a colleague finishes
// the campaign byte-identically.
func TestKillAfterWorkerAsksNoNextLease(t *testing.T) {
	const cut = 3
	spec := baseSpec("fixed", 20, 4, nil)
	want, _ := referenceCSV(t, spec)
	cfg := testConfig(t.TempDir())
	cfg.BatchSize = 2
	cfg.LeaseTTL = time.Second // the killer's lease must outlive the checks below
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Runs 1..4 are queued before the killer starts, so its first lease
	// holds two of them and its acknowledgment brings the other two back:
	// the lease its cut falls in.
	for deadline := time.Now().Add(10 * time.Second); coord.sched.queueDepth() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the campaign never queued its first four runs")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spy := &ackSpy{Coordinator: coord}
	killer := &Worker{ID: "killer", API: spy, KillAfter: cut}
	select {
	case err := <-spawnWorker(ctx, killer):
		if !errors.Is(err, ErrWorkerKilled) {
			t.Fatalf("killer exited with %v, want ErrWorkerKilled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killer never reached its cut point")
	}
	if got := killer.completedRuns(); got != cut {
		t.Fatalf("killer completed %d runs, want exactly %d", got, cut)
	}
	if want := []string{"killer", ""}; !reflect.DeepEqual(spy.nexts, want) {
		t.Fatalf("acknowledgments named next workers %q, want %q", spy.nexts, want)
	}
	coord.sched.mu.Lock()
	var live []string
	for _, l := range coord.sched.leases {
		live = append(live, fmt.Sprintf("%s holding %d runs", l.worker, len(l.tasks)))
	}
	coord.sched.mu.Unlock()
	if want := []string{"killer holding 1 runs"}; !reflect.DeepEqual(live, want) {
		t.Fatalf("live leases after the killer died = %q, want %q", live, want)
	}

	spawnWorker(ctx, &Worker{ID: "healthy", API: coord})
	if st := waitDone(t, coord, id); st.State != "done" {
		t.Fatalf("campaign state = %q (%s)", st.State, st.Error)
	}
	if got := readCSV(t, coord.ResultCSVPath(id)); !bytes.Equal(got, want) {
		t.Error("CSV after the killer's death differs from reference")
	}
}

// FuzzCompleteBody: arbitrary bodies against the complete endpoint of a live
// lease never panic and never get a 5xx. The coordinator also holds three
// queued runs, so a body naming a next worker can be granted them. A
// rejected body leaves the lease exactly as it was and grants nothing; an
// accepted one delivers exactly the runs it settled, and answers 200 with
// the queued runs leased to the named worker when it names one, else 204
// with the queue untouched.
func FuzzCompleteBody(f *testing.F) {
	for _, seed := range []string{
		`{"token":1,"results":[{"run":1,"invocations":[]},{"run":2,"invocations":[]},{"run":3,"invocations":[]}]}`,
		`{"token":1,"results":[{"run":2,"invocations":[{"instance":0,"metrics":{"exec_time":1.5}}]}]}`,
		`{"token":1,"results":[{"run":3,"err":"backend: unknown workload: \"x\""}]}`,
		`{"token":1,"results":[{"run":1},{"run":2},{"run":3}],"next":"w1"}`,
		`{"token":1,"results":[{"run":2}],"next":"w2"}`,
		`{"token":1,"results":[{"run":1}],"next":""}`,
		`{"token":1,"results":[],"next":"w1"}`,
		`{"token":2,"results":[{"run":1}],"next":"w1"}`,
		`{"token":1,"results":[{"run":1}],"next":7}`,
		`{"token":1,"results":[]}`,
		`{"token":1,"results":[{"run":1},{"run":1}]}`,
		`{"token":1,"results":[{"run":9}]}`,
		`{"token":2,"results":[{"run":1}]}`,
		`{"token":1,"result":{"run":1}}`,
		`{"token":-1}`,
		`{"token":`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte) {
		c, l, tasks := leaseFixture(t, dir, 3)
		for run := 4; run <= 6; run++ {
			c.sched.enqueue(&task{campID: "c1", run: run, result: make(chan RunResult, 1)})
		}
		req := httptest.NewRequest(http.MethodPost, "/leases/"+l.ID+"/complete", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		Handler(c).ServeHTTP(rec, req)
		code := rec.Code
		if code >= 500 {
			t.Fatalf("status %d for body %q", code, body)
		}
		left := outstanding(c, l.ID)
		queued, leases := c.sched.queueDepth(), c.sched.outstanding()
		if code != http.StatusOK && code != http.StatusNoContent {
			if !reflect.DeepEqual(left, []int{1, 2, 3}) || delivered(tasks) != 0 {
				t.Fatalf("rejected body (status %d) changed the lease: outstanding %v, delivered %d", code, left, delivered(tasks))
			}
			if queued != 3 || leases != 1 {
				t.Fatalf("rejected body (status %d) granted work: %d queued, %d leases", code, queued, leases)
			}
			return
		}
		if len(left)+delivered(tasks) != 3 {
			t.Fatalf("accepted body: %d outstanding + %d delivered, want 3", len(left), delivered(tasks))
		}
		var sent completeBody
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sent); err != nil {
			t.Fatalf("accepted body %q does not decode: %v", body, err)
		}
		if code == http.StatusNoContent {
			if sent.Next != "" || queued != 3 {
				t.Fatalf("204 for next %q with %d runs queued, want a lease of the 3", sent.Next, queued)
			}
			return
		}
		var got Lease
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 answered %q: %v", rec.Body.Bytes(), err)
		}
		if sent.Next == "" || !reflect.DeepEqual(got.Runs, []int{4, 5, 6}) || got.Token != 2 || got.CampaignID != "c1" || queued != 0 {
			t.Fatalf("next %q: granted %+v with %d still queued, want runs 4..6 of c1 under token 2", sent.Next, got, queued)
		}
		c.sched.mu.Lock()
		holder := c.sched.leases[got.ID]
		c.sched.mu.Unlock()
		if holder == nil || holder.worker != sent.Next {
			t.Fatalf("lease %s is not held by %q", got.ID, sent.Next)
		}
	})
}

// FuzzCampaignSpec: decoding and validating an arbitrary submission never
// panics, and a spec admission accepts survives a JSON round trip with its
// validity, its cache key and its reference experiment intact.
func FuzzCampaignSpec(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"acme","workload":"hotspot","machine":"machine1","rule":"fixed","threshold":12,"seed":42,"concurrency":2,"parallel":3,"chaos":{"seed":99,"error_rate":0.08}}`,
		`{"workload":"bfs","rule":"ci","threshold":0.05,"min_runs":5,"max_runs":50,"warmup_runs":2,"day":3}`,
		`{"workload":"srad","machine":"machine3","rule":"ks","chaos":{"timeout_rate":0.5,"latency_rate":0.2,"latency_spike":4}}`,
		`{"workload":"hotspot","rule":"fixed","threshold":-1,"max_runs":-3,"concurrency":-2}`,
		`{"workload":"lud","chaos":{"error_rate":1}}`,
		`{"workload":"nope"}`,
		`{"workload":"hotspot","machine":"machine9"}`,
		`{"workload":"hotspot","rule":"bogus"}`,
		`{"workload":"hotspot","chaos":null}`,
		`{"workload":`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return
		}
		if spec.withDefaults().Validate() != nil {
			return
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		var back CampaignSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("accepted spec %s does not decode: %v", data, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the spec: %+v -> %+v", spec, back)
		}
		norm := back.withDefaults()
		if err := norm.Validate(); err != nil {
			t.Fatalf("round-tripped spec %s rejected: %v", data, err)
		}
		if norm.cacheKey() != spec.withDefaults().cacheKey() {
			t.Fatalf("round trip changed the cache key of %s", data)
		}
		// Building the campaign may fail, but must not panic.
		_, _ = norm.ReferenceExperiment()
	})
}

// FuzzRequestBodies: arbitrary submit, lease and heartbeat bodies against a
// live coordinator never panic and never get a 5xx. The coordinator holds
// one live lease (runs 1..3, token 1) and three queued runs, so a lease
// body can be granted work and a heartbeat can hit a live lease.
func FuzzRequestBodies(f *testing.F) {
	seeds := []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"tenant":"acme","workload":"hotspot","machine":"machine1","rule":"fixed","threshold":5}`},
		{0, `{"workload":"nope"}`},
		{0, `{"workload":"hotspot","chaos":{"error_rate":2}}`},
		{0, `{"workload":`},
		{1, `{"worker":"w2"}`},
		{1, `{"worker":""}`},
		{1, `{"worker":7}`},
		{1, `null`},
		{2, `{"token":1}`},
		{2, `{"token":2}`},
		{2, `{"token":-1}`},
		{2, `{"token":1e30}`},
		{2, ``},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		c, l, _ := leaseFixture(t, t.TempDir(), 3)
		for run := 4; run <= 6; run++ {
			c.sched.enqueue(&task{campID: "c1", run: run, result: make(chan RunResult, 1)})
		}
		path := []string{"/campaigns", "/lease", "/leases/" + l.ID + "/heartbeat"}[endpoint%3]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		Handler(c).ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST %s: status %d for body %q", path, rec.Code, body)
		}
		switch {
		case endpoint%3 == 0 && rec.Code == http.StatusAccepted:
			var resp struct{ ID string }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("accepted submit answered %q: %v", rec.Body.Bytes(), err)
			}
			if _, ok := c.Status(resp.ID); !ok {
				t.Fatalf("accepted campaign %q is unknown", resp.ID)
			}
		case endpoint%3 == 1 && rec.Code == http.StatusOK:
			var got Lease
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("granted lease answered %q: %v", rec.Body.Bytes(), err)
			}
			if !reflect.DeepEqual(got.Runs, []int{4, 5, 6}) || got.Token != 2 {
				t.Fatalf("granted lease %+v, want runs 4..6 under token 2", got)
			}
		case endpoint%3 == 2 && rec.Code == http.StatusNoContent:
			if got := outstanding(c, l.ID); !reflect.DeepEqual(got, []int{1, 2, 3}) {
				t.Fatalf("heartbeat left the lease holding %v", got)
			}
		}
	})
}

// FuzzLeaseResponse: a worker's Client.Lease and Client.CompleteRuns
// decode whatever a coordinator (or anything posing as one) answers, and
// never panic. A 204 means no work (for CompleteRuns: the batch landed and
// no lease came back), a 4xx/5xx is an error, and a 2xx body holding a JSON
// lease yields exactly the lease a JSON decoder reads from it; any other 2xx
// body is an error and yields no lease.
func FuzzLeaseResponse(f *testing.F) {
	for _, seed := range []struct {
		code uint16
		body string
	}{
		{0, `{"id":"l000001","token":7,"campaign_id":"c0001","spec":{"workload":"hotspot","rule":"fixed","threshold":12},"runs":[1,2,3],"ttl":30000000000}`},
		{0, `{"id":"l1","token":1,"runs":[]}`},
		{0, `{"token":-1,"runs":["x"]}`},
		{0, `{"spec":{"chaos":{"error_rate":"high"}}}`},
		{0, `{"id":"l1"} trailing`},
		{0, `null`},
		{0, `[]`},
		{0, `{"id":`},
		{0, ``},
		{4, ``},
		{209, `draining`},
		{229, `tenant saturated`},
		{300, `{"id":"l1"}`},
	} {
		f.Add(seed.code, []byte(seed.body))
	}
	var (
		mu   sync.Mutex
		code int
		body []byte
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(code)
		w.Write(body)
	}))
	defer srv.Close()
	cl := NewHTTPClient(srv.URL)
	f.Fuzz(func(t *testing.T, c uint16, b []byte) {
		mu.Lock()
		defer mu.Unlock()
		code, body = 200+int(c)%400, b
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var want Lease
		decodes := json.NewDecoder(bytes.NewReader(b)).Decode(&want) == nil
		check := func(call string, l *Lease, err error) {
			switch {
			case err != nil && l != nil:
				t.Fatalf("%s, status %d: a lease and an error %v", call, code, err)
			case code == http.StatusNoContent:
				if l != nil {
					t.Fatalf("%s, status 204: lease %+v, want none", call, l)
				}
			case code >= 400:
				if err == nil {
					t.Fatalf("%s, status %d: lease %+v, want an error", call, code, l)
				}
			case code < 300 && !decodes:
				if err == nil {
					t.Fatalf("%s, status %d, body %q: lease %+v, want an error", call, code, b, l)
				}
			case code < 300:
				if err != nil {
					t.Fatalf("%s, status %d, body %q: %v, want the decoded lease", call, code, b, err)
				}
				if !reflect.DeepEqual(*l, want) {
					t.Fatalf("%s, status %d, body %q: lease %+v, want %+v", call, code, b, *l, want)
				}
			}
		}
		l, err := cl.Lease(ctx, "w1")
		if err == nil && l == nil {
			t.Fatalf("Lease, status %d: no lease and no error", code)
		}
		if code == http.StatusNoContent && !errors.Is(err, ErrNoWork) {
			t.Fatalf("Lease, status 204: error %v, want ErrNoWork", err)
		}
		check("Lease", l, err)
		l, err = cl.CompleteRuns(ctx, "l000001", 1, []RunResult{{Run: 1}}, "w1")
		if code == http.StatusNoContent && err != nil {
			t.Fatalf("CompleteRuns, status 204: %v, want a landed batch", err)
		}
		check("CompleteRuns", l, err)
	})
}
