package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sharp/internal/core"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/resilience"
)

// waitCampaign blocks until the campaign reaches a terminal state.
func (c *Coordinator) waitCampaign(ctx context.Context, id string) (CampaignStatus, error) {
	c.mu.Lock()
	cp, ok := c.camps[id]
	c.mu.Unlock()
	if !ok {
		return CampaignStatus{}, fmt.Errorf("service: unknown campaign %q", id)
	}
	select {
	case <-cp.done:
		return cp.status(), nil
	case <-ctx.Done():
		return CampaignStatus{}, ctx.Err()
	}
}

// kill simulates a coordinator crash (kill -9): campaign contexts are
// cancelled and NO finalization is journaled — recovery must come entirely
// from the durable per-row CSV logs, like after a real process death.
// Production shutdown is Drain.
func (c *Coordinator) kill() {
	c.mu.Lock()
	c.killed = true
	c.mu.Unlock()
	c.rootCancel()
	c.wg.Wait()
	c.janitorWG.Wait()
}

// waitDone polls until the campaign reaches a terminal state.
func (cl *Client) waitDone(ctx context.Context, id string, poll time.Duration) (CampaignStatus, error) {
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "done", "failed", "interrupted":
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// completedRuns returns how many runs this worker has successfully acknowledged.
func (w *Worker) completedRuns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.completed
}

// frozenTime is the constant row clock: every timestamp in every CSV under
// test is this instant, so logs byte-compare across launchers, service
// restarts, and processes.
var frozenTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func frozenClock() time.Time { return frozenTime }

// chaosOn is the fault mix used by the chaos variants (same rates as the
// core differential tests).
var chaosOn = &ChaosSpec{Seed: 99, ErrorRate: 0.08, TimeoutRate: 0.04, LatencyRate: 0.1}

// baseSpec returns a small deterministic campaign.
func baseSpec(rule string, threshold float64, parallel int, chaos *ChaosSpec) CampaignSpec {
	return CampaignSpec{
		Tenant:      "acme",
		Workload:    "hotspot",
		Machine:     "machine1",
		Rule:        rule,
		Threshold:   threshold,
		MaxRuns:     40,
		Seed:        42,
		Day:         1,
		Concurrency: 2,
		WarmupRuns:  2,
		Parallel:    parallel,
		Chaos:       chaos,
	}
}

// referenceCSV runs the undisturbed sequential ground truth locally and
// returns its CSV bytes and result.
func referenceCSV(t *testing.T, spec CampaignSpec) ([]byte, *core.Result) {
	t.Helper()
	e, err := spec.ReferenceExperiment()
	if err != nil {
		t.Fatalf("reference experiment: %v", err)
	}
	l := &core.Launcher{Clock: frozenClock}
	res, runErr := l.Run(context.Background(), e)
	if runErr != nil && !errors.Is(runErr, core.ErrFailureBudget) {
		t.Fatalf("reference run: %v", runErr)
	}
	path := filepath.Join(t.TempDir(), "ref.csv")
	if err := res.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, res
}

// testConfig builds a fast-expiry coordinator config over dir. Lease TTL is
// short so dead workers are detected quickly; spurious expiries under a
// slow -race scheduler are harmless — reassignment never changes bytes
// (that is the property under test).
func testConfig(dir string) Config {
	return Config{
		DataDir:         dir,
		Clock:           frozenClock,
		LeaseTTL:        200 * time.Millisecond,
		JanitorInterval: 10 * time.Millisecond,
		BatchSize:       3,
		MaxRunning:      4,
		MaxPerTenant:    8,
		MaxActive:       16,
		DrainGrace:      time.Second,
	}
}

// spawnWorker starts a worker and returns a channel with its exit error.
func spawnWorker(ctx context.Context, w *Worker) <-chan error {
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return done
}

func waitDone(t *testing.T, c *Coordinator, id string) CampaignStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.waitCampaign(ctx, id)
	if err != nil {
		t.Fatalf("campaign %s did not finish: %v", id, err)
	}
	return st
}

func readCSV(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServiceMatchesSequential is the core differential: a campaign sharded
// across concurrent workers through the lease scheduler produces a CSV
// byte-identical to the plain sequential launcher, for rule-driven and
// fixed-count stopping, sequential and parallel merge engines, with and
// without chaos injection.
func TestServiceMatchesSequential(t *testing.T) {
	cases := []struct {
		name      string
		rule      string
		threshold float64
		parallel  int
		chaos     *ChaosSpec
	}{
		{"fixed/seq/clean", "fixed", 12, 1, nil},
		{"fixed/par/clean", "fixed", 12, 4, nil},
		{"fixed/seq/chaos", "fixed", 12, 1, chaosOn},
		{"fixed/par/chaos", "fixed", 12, 4, chaosOn},
		{"ks/seq/clean", "ks", 0.15, 1, nil},
		{"ks/par/chaos", "ks", 0.15, 4, chaosOn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := baseSpec(tc.rule, tc.threshold, tc.parallel, tc.chaos)
			want, refRes := referenceCSV(t, spec)

			dir := t.TempDir()
			coord, err := New(testConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 0; i < 3; i++ {
				spawnWorker(ctx, &Worker{ID: fmt.Sprintf("w%d", i), API: coord})
			}

			id, err := coord.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st := waitDone(t, coord, id)
			got := readCSV(t, coord.ResultCSVPath(id))
			if !bytes.Equal(got, want) {
				t.Errorf("service CSV differs from sequential reference (%d vs %d bytes)", len(got), len(want))
			}
			if st.Runs != refRes.Runs {
				t.Errorf("runs = %d, want %d", st.Runs, refRes.Runs)
			}
			if st.State == "done" && st.StopReason != refRes.StopReason {
				t.Errorf("stop reason = %q, want %q", st.StopReason, refRes.StopReason)
			}
		})
	}
}

// TestWorkerDeathReassignsExactly kills a worker at three cut points (first
// run, middle, last-but-one) under both merge engines and both chaos modes:
// the killed worker completes exactly `cut` runs, computes one more, and
// vanishes with it unacknowledged. Lease expiry must reassign exactly the
// orphaned runs to a healthy worker and the final CSV must be byte-identical
// to the no-fault sequential reference — a murdered worker leaves no trace
// in the data.
func TestWorkerDeathReassignsExactly(t *testing.T) {
	const runs = 10
	type ruleCase struct {
		rule      string
		threshold float64
	}
	// Two stopping rules: a fixed run count and a data-driven convergence
	// rule (MinRuns in baseSpec-derived specs guarantees the campaign
	// outlives every cut point).
	for _, rc := range []ruleCase{{"fixed", runs}, {"ks", 0.15}} {
		for _, parallel := range []int{1, 3} {
			for _, chaos := range []*ChaosSpec{nil, chaosOn} {
				for _, cut := range []int{1, runs / 2, runs - 1} {
					name := fmt.Sprintf("%s/par%d/chaos%v/cut%d", rc.rule, parallel, chaos != nil, cut)
					t.Run(name, func(t *testing.T) {
						spec := baseSpec(rc.rule, rc.threshold, parallel, chaos)
						spec.MinRuns = runs
						want, refRes := referenceCSV(t, spec)

						dir := t.TempDir()
						reg := obs.NewRegistry()
						cfg := testConfig(dir)
						cfg.Registry = reg
						coord, err := New(cfg)
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

						// Phase 1: only the doomed worker, so it must reach its
						// cut point. It completes `cut` runs and dies holding
						// the next one unacknowledged.
						killer := &Worker{ID: "killer", API: coord, KillAfter: cut}
						killerDone := spawnWorker(ctx, killer)
						select {
						case err := <-killerDone:
							if !errors.Is(err, ErrWorkerKilled) {
								t.Fatalf("killer exited with %v, want ErrWorkerKilled", err)
							}
						case <-time.After(30 * time.Second):
							t.Fatal("killer never reached its cut point")
						}
						if got := killer.completedRuns(); got != cut {
							t.Fatalf("killer completed %d runs, want exactly %d", got, cut)
						}

						// Phase 2: a healthy worker picks up the reassigned
						// orphans and finishes the campaign.
						spawnWorker(ctx, &Worker{ID: "healthy", API: coord})
						st := waitDone(t, coord, id)
						if st.State != "done" && st.State != "failed" {
							t.Fatalf("campaign state = %q", st.State)
						}

						// Sample count and stopping verdict must match the
						// undisturbed reference, not just the bytes.
						if st.Runs != refRes.Runs {
							t.Errorf("runs = %d, want %d", st.Runs, refRes.Runs)
						}
						if st.State == "done" && st.StopReason != refRes.StopReason {
							t.Errorf("stop reason = %q, want %q", st.StopReason, refRes.StopReason)
						}

						got := readCSV(t, coord.ResultCSVPath(id))
						if !bytes.Equal(got, want) {
							t.Errorf("CSV after worker murder differs from reference (%d vs %d bytes)", len(got), len(want))
						}
						if v := reg.Counter("sharp_service_lease_expiries_total", "", "worker", "killer").Value(); v < 1 {
							t.Errorf("no lease expiry recorded for the killed worker")
						}
						if v := reg.Counter("sharp_service_runs_reassigned_total", "").Value(); v < 1 {
							t.Errorf("no run reassignment recorded")
						}
					})
				}
			}
		}
	}
}

// TestCoordinatorCrashRestart is the acceptance end-to-end: a campaign
// suffers a kill -9'd worker AND a coordinator crash (no graceful
// finalization — recovery comes entirely from the durable per-row CSV), and
// after restart the completed result is byte-identical to the sequential
// no-fault reference. Verified across sequential/parallel × chaos on/off.
func TestCoordinatorCrashRestart(t *testing.T) {
	const runs = 14
	for _, parallel := range []int{1, 4} {
		for _, chaos := range []*ChaosSpec{nil, chaosOn} {
			name := fmt.Sprintf("par%d/chaos%v", parallel, chaos != nil)
			t.Run(name, func(t *testing.T) {
				spec := baseSpec("fixed", runs, parallel, chaos)
				want, _ := referenceCSV(t, spec)
				dir := t.TempDir()

				// Incarnation 1: a worker that dies mid-campaign, then a
				// healthy one; once some progress is durable, the
				// coordinator itself is killed without any finalization.
				coord1, err := New(testConfig(dir))
				if err != nil {
					t.Fatal(err)
				}
				ctx1, cancel1 := context.WithCancel(context.Background())
				id, err := coord1.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				killer := &Worker{ID: "killer", API: coord1, KillAfter: 3}
				killerDone := spawnWorker(ctx1, killer)
				select {
				case <-killerDone:
				case <-time.After(30 * time.Second):
					t.Fatal("killer never died")
				}
				spawnWorker(ctx1, &Worker{ID: "w1", API: coord1})
				// Let the campaign make partial durable progress, then crash.
				deadline := time.Now().Add(20 * time.Second)
				for {
					if rows, err := record.ReadFile(coord1.ResultCSVPath(id)); err == nil && len(rows) > 6 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("campaign made no durable progress")
					}
					time.Sleep(2 * time.Millisecond)
				}
				coord1.kill()
				cancel1()

				// Incarnation 2: recover from the journal alone.
				coord2, err := New(testConfig(dir))
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer coord2.Close()
				ctx2, cancel2 := context.WithCancel(context.Background())
				defer cancel2()
				spawnWorker(ctx2, &Worker{ID: "w2", API: coord2})
				spawnWorker(ctx2, &Worker{ID: "w3", API: coord2})

				st := waitDone(t, coord2, id)
				if st.State != "done" && st.State != "failed" {
					t.Fatalf("recovered campaign state = %q (%s)", st.State, st.Error)
				}
				got := readCSV(t, coord2.ResultCSVPath(id))
				if !bytes.Equal(got, want) {
					t.Errorf("CSV after worker murder + coordinator crash differs from reference (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestDrainCheckpointsAndResumes: graceful drain stops lease issuance, lets
// in-flight work land, interrupts the campaign at a run boundary with a
// checkpoint, and refuses new submissions; a restarted coordinator resumes
// from the checkpoint to a byte-identical result.
func TestDrainCheckpointsAndResumes(t *testing.T) {
	spec := baseSpec("fixed", 20, 1, nil)
	want, _ := referenceCSV(t, spec)
	dir := t.TempDir()

	coord1, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	id, err := coord1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A worker that dies after 6 runs leaves the campaign mid-flight with
	// no one to finish it — the drain must checkpoint it.
	killer := &Worker{ID: "killer", API: coord1, KillAfter: 6}
	killerDone := spawnWorker(ctx1, killer)
	select {
	case <-killerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("killer never died")
	}

	drainCtx, drainCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer drainCancel()
	if err := coord1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel1()

	st, ok := coord1.Status(id)
	if !ok || st.State != "interrupted" {
		t.Fatalf("after drain, state = %q, want interrupted", st.State)
	}
	if _, err := coord1.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit during drain = %v, want ErrDraining", err)
	}
	m, err := record.ParseMetadataFile(filepath.Join(dir, id+".meta.md"))
	if err != nil {
		t.Fatalf("no metadata after drain: %v", err)
	}
	ckRun, ckRows, ok := m.Checkpoint()
	if !ok {
		t.Fatal("drain wrote no checkpoint")
	}
	if ckRun != st.Runs || ckRows != st.Rows {
		t.Errorf("checkpoint (%d,%d) disagrees with status (%d,%d)", ckRun, ckRows, st.Runs, st.Rows)
	}

	// Restart: resume from the checkpoint and finish.
	coord2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	spawnWorker(ctx2, &Worker{ID: "fresh", API: coord2})
	st2 := waitDone(t, coord2, id)
	if st2.State != "done" {
		t.Fatalf("resumed campaign state = %q (%s)", st2.State, st2.Error)
	}
	got := readCSV(t, coord2.ResultCSVPath(id))
	if !bytes.Equal(got, want) {
		t.Errorf("CSV after drain + resume differs from reference (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRecoveryCorruptLogFailsOnlyItsCampaign: a recovered campaign whose row
// log is corrupt mid-file cannot be repaired. It fails on its own, with the
// repair error in its status, while the coordinator starts, finishes the
// other recovered campaign byte-identically, and admits new ones.
func TestRecoveryCorruptLogFailsOnlyItsCampaign(t *testing.T) {
	spec := baseSpec("fixed", 14, 1, nil)
	want, _ := referenceCSV(t, spec)
	dir := t.TempDir()
	corrupt := append([]byte(nil), want...)
	corrupt[len(corrupt)/2] = '"' // a bare quote inside an interior row
	logs := map[string][]byte{
		"c0001": corrupt,
		"c0002": want[:len(want)*2/3], // a crash mid-row: torn, repairable
	}
	for id, csv := range logs {
		data, err := json.Marshal(specRecord{ID: id, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".spec.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".csv"), csv, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("recovery with one corrupt log: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spawnWorker(ctx, &Worker{ID: "w1", API: coord})
	spawnWorker(ctx, &Worker{ID: "w2", API: coord})

	if st := waitDone(t, coord, "c0001"); st.State != "failed" || !strings.Contains(st.Error, "repairing") || !strings.Contains(st.Error, "corrupt row") {
		t.Errorf("corrupt campaign = %q (%s), want failed with the repair error", st.State, st.Error)
	}
	if st := waitDone(t, coord, "c0002"); st.State != "done" {
		t.Fatalf("torn campaign = %q (%s), want done", st.State, st.Error)
	}
	if got := readCSV(t, coord.ResultCSVPath("c0002")); !bytes.Equal(got, want) {
		t.Errorf("recovered torn campaign differs from reference (%d vs %d bytes)", len(got), len(want))
	}
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, coord, id); st.State != "done" || !bytes.Equal(readCSV(t, coord.ResultCSVPath(id)), want) {
		t.Errorf("new campaign after recovery = %q (%s), want done and identical to the reference", st.State, st.Error)
	}
}

// TestAdmissionControl: per-tenant and global quotas reject with the typed
// errors the HTTP layer maps to 429.
func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxPerTenant = 1
	cfg.MaxActive = 2
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// No workers: campaigns stay active, holding their quota slots.
	specA := baseSpec("fixed", 5, 1, nil)
	if _, err := coord.Submit(specA); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Submit(specA); !errors.Is(err, ErrTenantSaturated) {
		t.Errorf("second submit for tenant = %v, want ErrTenantSaturated", err)
	}
	specB := specA
	specB.Tenant = "globex"
	if _, err := coord.Submit(specB); err != nil {
		t.Fatal(err)
	}
	specC := specA
	specC.Tenant = "initech"
	if _, err := coord.Submit(specC); !errors.Is(err, ErrSaturated) {
		t.Errorf("over-capacity submit = %v, want ErrSaturated", err)
	}
	if _, err := coord.Submit(CampaignSpec{Workload: "no-such-workload", Machine: "machine1"}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestFencingRejectsStaleCompletions drives the scheduler directly: an
// expired lease's token must be rejected for heartbeat and completion, the
// orphaned run must be re-leased under a new token, and only the new
// token's completion may deliver. Repeated expiries open the worker's
// breaker (eviction).
func TestFencingRejectsStaleCompletions(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s := newScheduler(time.Second, 2, clock, nil, nil, resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour, Now: clock})
	s.register("c1", CampaignSpec{Workload: "hotspot", Machine: "machine1"})

	tk := &task{campID: "c1", run: 1, result: make(chan RunResult, 1)}
	s.enqueue(tk)
	l1, err := s.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	// Expire it: past the deadline, the janitor sweep revokes and requeues.
	advance(2 * time.Second)
	if n := s.expire(); n != 1 {
		t.Fatalf("expire() = %d leases, want 1", n)
	}
	if err := s.Heartbeat(l1.ID, l1.Token); !errors.Is(err, ErrStaleLease) {
		t.Errorf("heartbeat on expired lease = %v, want ErrStaleLease", err)
	}
	if err := s.Complete(l1.ID, l1.Token, RunResult{Run: 1}); !errors.Is(err, ErrStaleLease) {
		t.Errorf("complete with stale token = %v, want ErrStaleLease", err)
	}
	select {
	case <-tk.result:
		t.Fatal("stale completion delivered a result")
	default:
	}

	// The orphan re-leases under a strictly newer fencing token.
	l2, err := s.Lease("w2")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Token <= l1.Token {
		t.Errorf("fencing token not monotonic: %d after %d", l2.Token, l1.Token)
	}
	if len(l2.Runs) != 1 || l2.Runs[0] != 1 {
		t.Errorf("reassigned runs = %v, want [1]", l2.Runs)
	}
	if err := s.Complete(l2.ID, l2.Token, RunResult{Run: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.result:
	default:
		t.Fatal("live completion did not deliver")
	}

	// Two more expiries open w1's breaker: it is evicted.
	for i := 0; i < 2; i++ {
		tk := &task{campID: "c1", run: 10 + i, result: make(chan RunResult, 1)}
		s.enqueue(tk)
		if _, err := s.Lease("w1"); err != nil {
			t.Fatal(err)
		}
		advance(2 * time.Second)
		s.expire()
	}
	if _, err := s.Lease("w1"); !errors.Is(err, ErrWorkerEvicted) {
		t.Errorf("lease for tripped worker = %v, want ErrWorkerEvicted", err)
	}
	if _, err := s.Lease("w2"); errors.Is(err, ErrWorkerEvicted) {
		t.Error("healthy worker evicted alongside the dead one")
	}
}

// TestLeaseSkipsUnregisteredCampaign: tasks of a campaign that is no longer
// registered are dropped when they reach the head of the queue, and the
// lease goes to the next campaign's runs. Emptying the whole queue instead
// would strand every other campaign's queued runs, whose dispatch backends
// then wait forever.
func TestLeaseSkipsUnregisteredCampaign(t *testing.T) {
	s := newScheduler(time.Minute, 4, nil, nil, nil, resilience.BreakerConfig{})
	s.register("B", CampaignSpec{Workload: "hotspot", Machine: "machine1"})
	b1 := &task{campID: "B", run: 1, result: make(chan RunResult, 1)}
	b2 := &task{campID: "B", run: 2, result: make(chan RunResult, 1)}
	for _, tk := range []*task{
		{campID: "X", run: 1, result: make(chan RunResult, 1)},
		b1,
		{campID: "X", run: 2, result: make(chan RunResult, 1)},
		b2,
	} {
		s.enqueue(tk)
	}
	l, err := s.Lease("w1")
	if err != nil {
		t.Fatalf("lease with B's runs queued behind X's = %v", err)
	}
	if l.CampaignID != "B" || !reflect.DeepEqual(l.Runs, []int{1, 2}) {
		t.Fatalf("lease = campaign %s runs %v, want B runs [1 2]", l.CampaignID, l.Runs)
	}
	if n := s.queueDepth(); n != 0 {
		t.Errorf("%d tasks left queued, want X's dropped and B's leased", n)
	}
	if err := s.Complete(l.ID, l.Token, RunResult{Run: 1}, RunResult{Run: 2}); err != nil {
		t.Fatal(err)
	}
	if len(b1.result) != 1 || len(b2.result) != 1 {
		t.Error("B's runs were not delivered")
	}
	if _, err := s.Lease("w1"); !errors.Is(err, ErrNoWork) {
		t.Errorf("lease on a drained queue = %v, want ErrNoWork", err)
	}
}

// TestHTTPEndToEnd exercises the full wire path: submission, leases,
// heartbeats, completions, status, result download, backpressure, and
// health — all over HTTP, with the same byte-identity guarantee.
func TestHTTPEndToEnd(t *testing.T) {
	spec := baseSpec("fixed", 8, 2, chaosOn)
	want, _ := referenceCSV(t, spec)

	reg := obs.NewRegistry()
	cfg := testConfig(t.TempDir())
	cfg.Registry = reg
	cfg.MaxPerTenant = 1
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()

	cl := NewHTTPClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Workers connected over HTTP (Client implements WorkerAPI).
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	spawnWorker(wctx, &Worker{ID: "hw1", API: cl})
	spawnWorker(wctx, &Worker{ID: "hw2", API: cl})

	id, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Quota: the tenant's second concurrent campaign is 429 + Retry-After.
	resp, err := http.Post(srv.URL+"/campaigns", "application/json",
		strings.NewReader(`{"tenant":"acme","workload":"hotspot","machine":"machine1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-quota submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	st, err := cl.waitDone(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("state = %q (%s)", st.State, st.Error)
	}
	got, err := cl.ResultCSV(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP-fetched CSV differs from reference (%d vs %d bytes)", len(got), len(want))
	}

	// Health and metrics surfaces.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", hresp.StatusCode)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(mresp.Body)
	if !strings.Contains(buf.String(), "sharp_service_leases_total") {
		t.Error("metrics exposition missing lease counter")
	}

	// Drain over the service: health flips to 503, submissions refused.
	go coord.Drain(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for {
		dresp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := cl.Submit(ctx, spec); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain = %v, want ErrDraining", err)
	}
}

// TestSpecValidation: admission rejects what cannot run.
func TestSpecValidation(t *testing.T) {
	bad := []CampaignSpec{
		{},
		{Workload: "no-such-workload", Machine: "machine1"},
		{Workload: "hotspot", Machine: "no-such-machine"},
		{Workload: "hotspot", Machine: "machine1", Rule: "no-such-rule"},
		{Workload: "hotspot", Machine: "machine1", Chaos: &ChaosSpec{ErrorRate: 1.5}},
	}
	for i, spec := range bad {
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("case %d: invalid spec passed validation: %+v", i, spec)
		}
	}
	good := baseSpec("ks", 0.1, 2, chaosOn).withDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if good.Name != "hotspot@machine1" {
		t.Errorf("default name = %q", good.Name)
	}
	if good.Chaos.Seed != 99 {
		t.Errorf("chaos seed overridden: %d", good.Chaos.Seed)
	}
	// Chaos seed defaults to the campaign seed when unset.
	noSeed := baseSpec("fixed", 5, 1, &ChaosSpec{ErrorRate: 0.1}).withDefaults()
	if noSeed.Chaos.Seed != noSeed.Seed {
		t.Errorf("chaos seed = %d, want campaign seed %d", noSeed.Chaos.Seed, noSeed.Seed)
	}
}

// TestCampaignCacheServesRepeat covers the content-addressed result cache
// end to end: a measured campaign populates the cache; a later coordinator
// (fresh DataDir, same cache directory) answers the same spec with ZERO
// workers attached — the replayed CSV is byte-identical to the sequential
// reference — while a changed key ingredient (seed) misses and measures.
func TestCampaignCacheServesRepeat(t *testing.T) {
	spec := baseSpec("fixed", 12, 1, chaosOn)
	want, refRes := referenceCSV(t, spec)
	cacheDir := t.TempDir()

	// First service: measure and populate the cache.
	cfg := testConfig(t.TempDir())
	cfg.CacheDir = cacheDir
	col1 := obs.NewCollector()
	cfg.Tracer = col1
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		spawnWorker(ctx, &Worker{ID: fmt.Sprintf("w%d", i), API: coord})
	}
	id, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, coord, id); st.State != "done" {
		t.Fatalf("first campaign state = %s", st.State)
	}
	if got := readCSV(t, coord.ResultCSVPath(id)); !bytes.Equal(got, want) {
		t.Fatal("measured CSV differs from reference")
	}
	if n := len(col1.ByType(obs.EventCacheStore)); n != 1 {
		t.Fatalf("store events = %d, want 1", n)
	}
	cancel()
	coord.Close()

	// Second service: same cache, fresh journal, NO workers. Only a cache
	// hit can finish a campaign here.
	cfg2 := testConfig(t.TempDir())
	cfg2.CacheDir = cacheDir
	col2 := obs.NewCollector()
	cfg2.Tracer = col2
	coord2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	// A different tenant shares the entry: tenancy is not a key ingredient.
	hot := spec
	hot.Tenant = "globex"
	id2, err := coord2.Submit(hot)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, coord2, id2)
	if st.State != "done" {
		t.Fatalf("cached campaign state = %s (%s)", st.State, st.Error)
	}
	if st.Runs != refRes.Runs || st.StopReason != refRes.StopReason {
		t.Fatalf("replayed status = %d runs %q, want %d %q",
			st.Runs, st.StopReason, refRes.Runs, refRes.StopReason)
	}
	if got := readCSV(t, coord2.ResultCSVPath(id2)); !bytes.Equal(got, want) {
		t.Fatal("cached CSV differs from sequential reference")
	}
	if n := len(col2.ByType(obs.EventCacheHit)); n != 1 {
		t.Fatalf("hit events = %d, want 1", n)
	}

	// A changed key ingredient misses: with no workers the campaign cannot
	// finish, proving the miss forces real measurement.
	miss := spec
	miss.Seed = 43
	if _, err := coord2.Submit(miss); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(col2.ByType(obs.EventCacheMiss)) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := len(col2.ByType(obs.EventCacheMiss)); n != 1 {
		t.Fatalf("miss events = %d, want 1", n)
	}
}

// TestBudgetAwareLeaseOrdersByUrgency drives the scheduler directly: with
// BudgetAware on, Lease serves the queued campaign whose stopping rule is
// furthest from convergence, not the FIFO head. Never-reported campaigns
// are maximally urgent, and FIFO order breaks ties.
func TestBudgetAwareLeaseOrdersByUrgency(t *testing.T) {
	clock := func() time.Time { return time.Unix(1000, 0) }
	mk := func(budgetAware bool) *scheduler {
		s := newScheduler(time.Second, 2, clock, nil, nil, resilience.BreakerConfig{Now: clock})
		s.budgetAware = budgetAware
		for _, id := range []string{"c1", "c2", "c3"} {
			s.register(id, CampaignSpec{Workload: "hotspot", Machine: "machine1"})
			s.enqueue(&task{campID: id, run: 1, result: make(chan RunResult, 1)})
		}
		return s
	}

	// FIFO: head campaign regardless of urgency.
	s := mk(false)
	s.setUrgency("c1", 0.1)
	s.setUrgency("c2", 9.0)
	s.setUrgency("c3", 0.5)
	if l, err := s.Lease("w"); err != nil || l.CampaignID != "c1" {
		t.Fatalf("FIFO lease = %v, %v; want head campaign c1", l, err)
	}

	// Budget-aware: the most urgent campaign wins.
	s = mk(true)
	s.setUrgency("c1", 0.1)
	s.setUrgency("c2", 9.0)
	s.setUrgency("c3", 0.5)
	if l, err := s.Lease("w"); err != nil || l.CampaignID != "c2" {
		t.Fatalf("budget-aware lease = %v, %v; want most urgent c2", l, err)
	}

	// A campaign that never reported outranks any finite urgency.
	s = mk(true)
	s.setUrgency("c1", 0.1)
	s.setUrgency("c2", 9.0)
	if l, err := s.Lease("w"); err != nil || l.CampaignID != "c3" {
		t.Fatalf("lease = %v, %v; want never-evaluated c3", l, err)
	}

	// Ties keep FIFO order.
	s = mk(true)
	for _, id := range []string{"c1", "c2", "c3"} {
		s.setUrgency(id, 1.0)
	}
	if l, err := s.Lease("w"); err != nil || l.CampaignID != "c1" {
		t.Fatalf("tied lease = %v, %v; want FIFO head c1", l, err)
	}

	// Unregister clears the urgency entry so a recycled ID starts fresh.
	s.unregister("c1")
	s.mu.Lock()
	_, kept := s.urgency["c1"]
	s.mu.Unlock()
	if kept {
		t.Fatal("unregister left a stale urgency entry")
	}
}

// TestBudgetAwareServiceMatchesFIFO pins that budget-aware scheduling only
// reorders leases: two campaigns computed under either policy yield
// byte-identical result CSVs.
func TestBudgetAwareServiceMatchesFIFO(t *testing.T) {
	specs := []CampaignSpec{
		{Tenant: "a", Name: "wide", Workload: "hotspot", Machine: "machine1",
			Rule: "ci", Threshold: 0.02, MaxRuns: 120, Seed: 7},
		{Tenant: "a", Name: "narrow", Workload: "hotspot", Machine: "machine3",
			Rule: "fixed", Threshold: 30, MaxRuns: 60, Seed: 7},
	}
	run := func(budgetAware bool) map[string][]byte {
		coord, err := New(Config{
			DataDir:     t.TempDir(),
			Clock:       func() time.Time { return time.Unix(1700000000, 0).UTC() },
			BudgetAware: budgetAware,
			LeaseTTL:    2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < 3; i++ {
			spawnWorker(ctx, &Worker{ID: fmt.Sprintf("w%d", i), API: coord})
		}
		out := map[string][]byte{}
		ids := map[string]string{}
		for _, sp := range specs {
			id, err := coord.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			ids[sp.Name] = id
		}
		for name, id := range ids {
			st := waitDone(t, coord, id)
			if st.State != "done" {
				t.Fatalf("campaign %s state = %s (%s)", name, st.State, st.Error)
			}
			out[name] = readCSV(t, coord.ResultCSVPath(id))
		}
		return out
	}
	fifo := run(false)
	aware := run(true)
	for name := range fifo {
		if !bytes.Equal(fifo[name], aware[name]) {
			t.Fatalf("campaign %s: budget-aware CSV differs from FIFO", name)
		}
	}
}
