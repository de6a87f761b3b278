package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	err := cl.CompleteRuns(ctx, l.ID, l.Token+1, []RunResult{{Run: 1}})
	if !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale token over Client = %v, want ErrStaleLease", err)
	}
	if err := cl.CompleteRuns(ctx, "l999999", l.Token, []RunResult{{Run: 1}}); !errors.Is(err, ErrStaleLease) {
		t.Errorf("unknown lease over Client = %v, want ErrStaleLease", err)
	}
	if n := delivered(tasks); n != 0 {
		t.Fatalf("stale completions delivered %d results", n)
	}

	if err := cl.CompleteRuns(ctx, l.ID, l.Token, []RunResult{{Run: 3}, {Run: 1}}); err != nil {
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
	if err := cl.CompleteRuns(ctx, l2.ID, l2.Token, []RunResult{res}); err != nil {
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
	if got := killer.Completed(); got != cut {
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

// FuzzCompleteBody: arbitrary bodies against the complete endpoint of a live
// lease never panic and never get a 5xx. A rejected body leaves the lease
// exactly as it was; an accepted one delivers exactly the runs it settled.
func FuzzCompleteBody(f *testing.F) {
	for _, seed := range []string{
		`{"token":1,"results":[{"run":1,"invocations":[]},{"run":2,"invocations":[]},{"run":3,"invocations":[]}]}`,
		`{"token":1,"results":[{"run":2,"invocations":[{"instance":0,"metrics":{"exec_time":1.5}}]}]}`,
		`{"token":1,"results":[{"run":3,"err":"backend: unknown workload: \"x\""}]}`,
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
		code := postComplete(Handler(c), l.ID, body)
		if code >= 500 {
			t.Fatalf("status %d for body %q", code, body)
		}
		left := outstanding(c, l.ID)
		if code != http.StatusNoContent {
			if !reflect.DeepEqual(left, []int{1, 2, 3}) || delivered(tasks) != 0 {
				t.Fatalf("rejected body (status %d) changed the lease: outstanding %v, delivered %d", code, left, delivered(tasks))
			}
			return
		}
		if len(left)+delivered(tasks) != 3 {
			t.Fatalf("accepted body: %d outstanding + %d delivered, want 3", len(left), delivered(tasks))
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

// FuzzLeaseResponse: a worker's Client.Lease decodes whatever a coordinator
// (or anything posing as one) answers, and never panics. A 204 means no
// work, a 4xx/5xx is an error, and a 2xx body holding a JSON lease yields
// exactly the lease a JSON decoder reads from it.
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
		l, err := cl.Lease(ctx, "w1")
		switch {
		case err == nil && l == nil:
			t.Fatalf("status %d: no lease and no error", code)
		case err != nil && l != nil:
			t.Fatalf("status %d: a lease and an error %v", code, err)
		case code == http.StatusNoContent:
			if !errors.Is(err, ErrNoWork) {
				t.Fatalf("status 204: error %v, want ErrNoWork", err)
			}
		case code >= 400:
			if err == nil {
				t.Fatalf("status %d: lease %+v, want an error", code, l)
			}
		case code < 300:
			var want Lease
			if json.NewDecoder(bytes.NewReader(b)).Decode(&want) != nil {
				return
			}
			if err != nil {
				t.Fatalf("status %d, body %q: %v, want the decoded lease", code, b, err)
			}
			if !reflect.DeepEqual(*l, want) {
				t.Fatalf("status %d, body %q: lease %+v, want %+v", code, b, *l, want)
			}
		}
	})
}
