package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sharp/internal/core"
	"sharp/internal/service"
)

// servicePhase runs one closed-loop batch of serviceCampaigns campaigns per
// unit: nproc HTTP workers serve the coordinator while one client keeps
// serviceMaxRunning campaigns of two tenants in flight.
type servicePhase struct {
	cfg config
	st  *setup
	t   *tally
	sp  *spans // nil untraced
	url string
	// close releases the traced phase's own coordinator and listener.
	release func()

	mu         sync.Mutex
	submitted  map[string]time.Time
	firstLease map[string]bool

	next       int // next spec index
	campaigns  int
	wall, runs float64
	workerWall float64
	// One value per batch: runs per second and turnaround percentiles.
	rate, p50, p90 series
}

func openService(_ context.Context, cfg config, st *setup, sp *spans, t *tally) (phase, error) {
	p := &servicePhase{cfg: cfg, st: st, t: t, sp: sp, url: st.url, release: func() {},
		submitted: map[string]time.Time{}, firstLease: map[string]bool{}}
	if sp == nil {
		return p, nil
	}
	// The traced phase gets its own coordinator, wired to the event
	// tracer, so the untraced phase runs without a tracer at all.
	c, err := newCoordinator(filepath.Join(st.dir, "service-traced"), newEventTracer(sp))
	if err != nil {
		return nil, err
	}
	url, srv, served, err := serve(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	p.url = url
	p.release = func() {
		shutdown(srv, served)
		c.Close()
	}
	return p, nil
}

// leased records the first lease of a campaign: its queue wait ends.
func (p *servicePhase) leased(id string, at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sub, ok := p.submitted[id]; ok && !p.firstLease[id] {
		p.firstLease[id] = true
		p.sp.add("service.queue_wait", at.Sub(sub).Seconds())
	}
}

func (p *servicePhase) unit(ctx context.Context, i int) error {
	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	workersStart := time.Now()
	for k := 0; k < p.cfg.nproc; k++ {
		var api service.WorkerAPI = service.NewHTTPClient(p.url)
		if p.sp != nil {
			api = &tracedWorkerAPI{api: api, sp: p.sp, firstLease: p.leased}
		}
		w := &service.Worker{ID: fmt.Sprintf("w%d", k), API: api, Poll: workerPoll}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: worker: %v\n", err)
			}
		}()
	}
	batch := make([]int, serviceCampaigns)
	for k := range batch {
		batch[k] = p.next % len(p.st.specs)
		p.next++
	}
	client := service.NewHTTPClient(p.url)
	b, err := p.closedLoop(ctx, client, batch, serviceBatchTimeout)
	stopWorkers()
	wg.Wait()
	p.workerWall += time.Since(workersStart).Seconds()
	if err != nil {
		return err
	}
	p.campaigns += len(b.turnarounds)
	p.wall += b.wall
	p.runs += float64(b.runs)
	p.rate.add(float64(b.runs)/b.wall, b.steal)
	p.p50.add(median(b.turnarounds), b.steal)
	p.p90.add(quantile(b.turnarounds, 0.9), b.steal)
	for k, id := range b.ids {
		if err := checkServiceResult(ctx, client, p.st, batch[k], id, p.t); err != nil {
			return err
		}
	}
	return nil
}

func (p *servicePhase) finish(e2e, layer *sheet, hs hostScale) float64 {
	p.cfg.logf("service: %d batches, %d campaigns, %.0f runs, %.2f s", len(p.rate.vals), p.campaigns, p.runs, p.wall)
	hs.rate(e2e, "service_runs_per_s", "runs/s", p.rate)
	hs.time(e2e, "service_campaign_p50_s", p.p50)
	hs.time(e2e, "service_campaign_p90_s", p.p90)
	if sp := p.sp; sp != nil {
		pctls(layer, "service.lease_rtt_us", "us", sp.get("service.lease"))
		pctls(layer, "service.complete_rtt_us", "us", sp.get("service.complete"))
		layer.set("service.completes_per_run", "ratio", float64(sp.counter("service.completes"))/p.runs)
		granted := float64(sp.counter("service.leases_granted"))
		layer.set("service.runs_per_lease", "runs", float64(sp.counter("service.leased_runs"))/granted)
		layer.set("service.useful_poll_ratio", "ratio", granted/float64(sp.counter("service.lease_calls")))
		wire := sp.sum("service.lease") + sp.sum("service.complete") + sp.sum("service.heartbeat")
		layer.set("service.wire_share", "ratio", wire/(p.workerWall*float64(p.cfg.nproc)))
		layer.set("service.stale_completes", "count", float64(sp.counter("service.stale_completes")))
		pctls(layer, "service.queue_wait_ms", "ms", sp.get("service.queue_wait"))
	}
	return p.wall / p.runs
}

func (p *servicePhase) close() { p.release() }

// batchResult is one closed-loop unit.
type batchResult struct {
	ids         []string // campaign ID per batch position
	wall        float64  // first submit to last done
	steal       float64  // the steal factor of that stretch
	runs        int      // acknowledged runs of done campaigns
	turnarounds []float64
}

// closedLoop submits the batch's specs keeping serviceMaxRunning in
// flight, submitting the next only when one finishes, and polls status
// until every campaign is terminal. A batch still open after timeout
// counts every campaign not yet done as failed, so a campaign the
// coordinator never finishes fails the run instead of hanging it.
func (p *servicePhase) closedLoop(ctx context.Context, cl *service.Client, batch []int, timeout time.Duration) (batchResult, error) {
	specs, t := p.st.specs, p.t
	res := batchResult{ids: make([]string, len(batch))}
	bctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	inflight := map[string]time.Time{} // submit time by campaign ID
	order := []string{}
	pos := map[string]int{} // batch position by campaign ID
	start := startClock()
	nextPos, done := 0, 0
	for done < len(batch) {
		if bctx.Err() != nil && ctx.Err() == nil {
			for _, id := range order {
				t.fail("service campaign %s: not done after %v", id, timeout)
				res.ids[pos[id]] = ""
			}
			for ; nextPos < len(batch); nextPos++ {
				t.fail("service campaign %s: not submitted within %v", specs[batch[nextPos]].Name, timeout)
			}
			break
		}
		for len(inflight) < serviceMaxRunning && nextPos < len(batch) {
			at := time.Now()
			id, err := cl.Submit(bctx, specs[batch[nextPos]])
			if err != nil {
				t.fail("service submit %s: %v", specs[batch[nextPos]].Name, err)
				nextPos++
				done++
				continue
			}
			p.mu.Lock()
			p.submitted[id] = at
			p.mu.Unlock()
			inflight[id] = at
			order = append(order, id)
			pos[id] = nextPos
			res.ids[nextPos] = id
			nextPos++
		}
		progressed := false
		for i := 0; i < len(order); i++ {
			id := order[i]
			s, err := cl.Status(bctx, id)
			if err != nil {
				if bctx.Err() != nil {
					break
				}
				return res, fmt.Errorf("status %s: %w", id, err)
			}
			switch s.State {
			case "done", "failed", "interrupted":
			default:
				continue
			}
			res.turnarounds = append(res.turnarounds, time.Since(inflight[id]).Seconds())
			if s.State == "done" {
				res.runs += s.Runs
			}
			t.check(s.State == "done", "service campaign %s: state %s %s", id, s.State, s.Error)
			delete(inflight, id)
			order = append(order[:i], order[i+1:]...)
			i--
			done++
			progressed = true
		}
		if !progressed && done < len(batch) {
			select {
			case <-ctx.Done():
				return res, ctx.Err()
			case <-bctx.Done():
			case <-time.After(statusPoll):
			}
		}
	}
	res.wall, res.steal = start.stop()
	return res, nil
}

// checkServiceResult compares a campaign's result CSV with its reference
// experiment run sequentially under the same frozen clock.
func checkServiceResult(ctx context.Context, cl *service.Client, st *setup, specIdx int, id string, t *tally) error {
	if id == "" {
		return nil // the submission failed and was counted
	}
	got, err := cl.ResultCSV(ctx, id)
	if err != nil {
		t.fail("service result %s: %v", id, err)
		return nil
	}
	spec := st.specs[specIdx]
	e, err := spec.ReferenceExperiment()
	if err != nil {
		return err
	}
	res, err := (&core.Launcher{Clock: frozenClock}).Run(ctx, e)
	if err != nil && !errors.Is(err, core.ErrFailureBudget) {
		return fmt.Errorf("reference %s: %w", spec.Name, err)
	}
	path := filepath.Join(st.dir, "reference.csv")
	if err := res.SaveCSV(path); err != nil {
		return err
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t.check(bytes.Equal(got, want), "service campaign %s (%s): result CSV differs from its reference", id, spec.Name)
	t.check(st.digest(fmt.Sprintf("service/%d", specIdx), got), "service campaign %s: result differs from an earlier run", id)
	return nil
}
