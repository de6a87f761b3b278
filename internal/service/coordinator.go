package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sharp/internal/cache"
	"sharp/internal/core"
	"sharp/internal/fsx"
	"sharp/internal/machine"
	"sharp/internal/obs"
	"sharp/internal/record"
	"sharp/internal/resilience"
	"sharp/internal/stopping"
	"sharp/internal/sysinfo"
)

// Config tunes a Coordinator. The zero value works (tests override almost
// everything; cmd/sharp-serve maps flags onto it).
//
// Two clocks, on purpose: Clock stamps tidy-data rows (frozen in tests so
// CSVs byte-compare across processes), while Now drives lease deadlines and
// MUST advance in real time — a frozen lease clock would never expire a dead
// worker's lease. Timing affects only liveness, never row bytes.
type Config struct {
	// DataDir holds the journal: per campaign a spec record, a durable CSV
	// row log, and a metadata file. Required.
	DataDir string
	// Clock stamps rows (nil = time.Now).
	Clock func() time.Time
	// Now drives lease deadlines (nil = time.Now).
	Now func() time.Time
	// LeaseTTL is how long a lease lives without a heartbeat (default 10s).
	LeaseTTL time.Duration
	// JanitorInterval is the lease-expiry sweep cadence (default TTL/4).
	JanitorInterval time.Duration
	// BatchSize is the max runs per lease (default 4).
	BatchSize int
	// MaxRunning bounds concurrently executing campaigns (default 4).
	MaxRunning int
	// MaxPerTenant bounds one tenant's active (queued+running) campaigns;
	// beyond it submissions get ErrTenantSaturated / HTTP 429 (default 4).
	MaxPerTenant int
	// MaxActive bounds total active campaigns across tenants (default 64).
	MaxActive int
	// DrainGrace bounds how long Drain waits for in-flight leases to land
	// before interrupting the remaining campaigns (default 5s).
	DrainGrace time.Duration
	// Breaker configures per-worker eviction (defaults per resilience).
	Breaker resilience.BreakerConfig
	// BudgetAware switches lease scheduling from strict FIFO to
	// urgency-ordered: workers are leased runs of the queued campaign whose
	// stopping rule is furthest from convergence, so a fixed worker-pool
	// budget flows to the campaigns that still need it. Off by default;
	// campaign results are identical either way (only lease order changes).
	BudgetAware bool
	// Tracer receives service + campaign events (nil disables).
	Tracer obs.Tracer
	// Registry receives service metrics (nil disables).
	Registry *obs.Registry
	// CacheDir, when non-empty, enables the content-addressed result cache:
	// a fresh submission whose spec hashes to a completed cached campaign is
	// answered by replaying the cached rows (zero worker dispatches), with
	// the result CSV byte-identical to a measured run. Resumed campaigns
	// never consult the cache — their partial durable log is the truth.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.JanitorInterval <= 0 {
		c.JanitorInterval = c.LeaseTTL / 4
	}
	if c.BatchSize < 1 {
		c.BatchSize = 4
	}
	if c.MaxRunning < 1 {
		c.MaxRunning = 4
	}
	if c.MaxPerTenant < 1 {
		c.MaxPerTenant = 4
	}
	if c.MaxActive < 1 {
		c.MaxActive = 64
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	return c
}

// CampaignStatus is a campaign's externally visible state.
type CampaignStatus struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	Name       string `json:"name"`
	State      string `json:"state"` // queued | running | done | interrupted | failed
	Runs       int    `json:"runs"`
	Rows       int    `json:"rows"`
	StopReason string `json:"stop_reason,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Health is the /healthz snapshot: enough to see at a glance whether the
// service is degrading (open breakers, deep queue) or draining.
type Health struct {
	Status            string            `json:"status"` // ok | draining
	Draining          bool              `json:"draining"`
	QueueDepth        int               `json:"queue_depth"`
	LeasesOutstanding int               `json:"leases_outstanding"`
	ActiveCampaigns   int               `json:"active_campaigns"`
	Workers           map[string]string `json:"workers,omitempty"`
}

// campaign is the coordinator-side record of one accepted campaign.
type campaign struct {
	id     string
	spec   CampaignSpec
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	state      string
	runs       int
	rows       int
	stopReason string
	errMsg     string
}

func (cp *campaign) status() CampaignStatus {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return CampaignStatus{
		ID:         cp.id,
		Tenant:     cp.spec.Tenant,
		Name:       cp.spec.Name,
		State:      cp.state,
		Runs:       cp.runs,
		Rows:       cp.rows,
		StopReason: cp.stopReason,
		Error:      cp.errMsg,
	}
}

func (cp *campaign) terminal() bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	switch cp.state {
	case "done", "failed", "interrupted":
		return true
	}
	return false
}

// specRecord is the on-disk journal entry written at admission; it is all a
// restarted coordinator needs to pick the campaign back up.
type specRecord struct {
	ID   string       `json:"id"`
	Spec CampaignSpec `json:"spec"`
}

// Coordinator is the campaign service: admission control in front, a
// lease scheduler in the middle, one launcher goroutine per running
// campaign behind, and a journal underneath so that a coordinator crash
// loses nothing but in-flight (recomputable) runs.
type Coordinator struct {
	cfg   Config
	sched *scheduler

	rootCtx    context.Context
	rootCancel context.CancelFunc
	janitorWG  sync.WaitGroup
	wg         sync.WaitGroup
	slots      chan struct{}

	cache *cache.Store // nil without Config.CacheDir

	mu       sync.Mutex
	camps    map[string]*campaign
	order    []string
	seq      int
	draining bool
	killed   bool
}

// New opens (or reopens) a coordinator over DataDir. Reopening recovers:
// campaigns journaled as done/failed are loaded as history; anything else is
// an interrupted campaign whose CSV is repaired (checkpoint-exact when drain
// wrote one, last-run-truncated otherwise) and resumed through
// core.Launcher.Resume — the continuation produces the same bytes the
// uninterrupted campaign would have.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		sched:      newScheduler(cfg.LeaseTTL, cfg.BatchSize, cfg.Now, cfg.Tracer, cfg.Registry, cfg.Breaker),
		rootCtx:    ctx,
		rootCancel: cancel,
		slots:      make(chan struct{}, cfg.MaxRunning),
		camps:      map[string]*campaign{},
	}
	c.sched.budgetAware = cfg.BudgetAware
	if cfg.CacheDir != "" {
		store, err := cache.Open(cfg.CacheDir)
		if err != nil {
			cancel()
			return nil, err
		}
		store.Tracer, store.Registry = cfg.Tracer, cfg.Registry
		c.cache = store
	}
	if err := c.recover(); err != nil {
		cancel()
		return nil, err
	}
	c.janitorWG.Add(1)
	go c.janitor()
	return c, nil
}

// janitor sweeps expired leases until shutdown.
func (c *Coordinator) janitor() {
	defer c.janitorWG.Done()
	tick := time.NewTicker(c.cfg.JanitorInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.rootCtx.Done():
			return
		case <-tick.C:
			c.sched.expire()
		}
	}
}

// recover scans the journal and restarts every unfinished campaign.
func (c *Coordinator) recover() error {
	specs, err := filepath.Glob(filepath.Join(c.cfg.DataDir, "*.spec.json"))
	if err != nil {
		return err
	}
	sort.Strings(specs)
	resumed := 0
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec specRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("service: corrupt journal entry %s: %w", path, err)
		}
		var n int
		if _, err := fmt.Sscanf(rec.ID, "c%d", &n); err == nil && n > c.seq {
			c.seq = n
		}
		cp := &campaign{
			id:   rec.ID,
			spec: rec.Spec.withDefaults(),
			done: make(chan struct{}),
		}
		cp.ctx, cp.cancel = context.WithCancel(c.rootCtx)

		// Journaled terminal state: load as history, don't rerun.
		if m, err := record.ParseMetadataFile(c.metaPath(rec.ID)); err == nil {
			if st := m.Get("service_state"); st == "done" || st == "failed" {
				cp.state = st
				cp.stopReason = m.Get("stop_reason")
				cp.errMsg = m.Get("service_error")
				fmt.Sscanf(m.Get("runs"), "%d", &cp.runs)
				if rows, _, _, err := record.ScanFile(c.csvPath(rec.ID)); err == nil {
					cp.rows = rows
				}
				close(cp.done)
				c.camps[rec.ID] = cp
				c.order = append(c.order, rec.ID)
				continue
			}
		}

		// Unfinished: the runner repairs its row log and resumes it.
		cp.state = "queued"
		c.camps[rec.ID] = cp
		c.order = append(c.order, rec.ID)
		resumed++
		c.wg.Add(1)
		go c.runner(cp, true)
	}
	if resumed > 0 {
		obs.Emit(c.cfg.Tracer, obs.EventServiceRecovered, map[string]any{
			"campaigns": resumed,
		})
	}
	return nil
}

func (c *Coordinator) csvPath(id string) string {
	return filepath.Join(c.cfg.DataDir, id+".csv")
}
func (c *Coordinator) specPath(id string) string {
	return filepath.Join(c.cfg.DataDir, id+".spec.json")
}
func (c *Coordinator) metaPath(id string) string {
	return filepath.Join(c.cfg.DataDir, id+".meta.md")
}

// Submit admits one campaign: validate, check quotas, journal the spec
// durably, start the runner. Returns the campaign ID.
func (c *Coordinator) Submit(spec CampaignSpec) (string, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		c.countReject(spec.Tenant, "invalid")
		return "", err
	}
	c.mu.Lock()
	if c.draining || c.killed {
		c.mu.Unlock()
		c.countReject(spec.Tenant, "draining")
		return "", ErrDraining
	}
	active, tenantActive := 0, 0
	for _, cp := range c.camps {
		if cp.terminal() {
			continue
		}
		active++
		if cp.spec.Tenant == spec.Tenant {
			tenantActive++
		}
	}
	if tenantActive >= c.cfg.MaxPerTenant {
		c.mu.Unlock()
		c.countReject(spec.Tenant, "tenant_saturated")
		obs.Emit(c.cfg.Tracer, obs.EventCampaignRejected, map[string]any{
			"tenant": spec.Tenant, "reason": "tenant_saturated",
		})
		return "", fmt.Errorf("%w: tenant %q has %d active campaigns", ErrTenantSaturated, spec.Tenant, tenantActive)
	}
	if active >= c.cfg.MaxActive {
		c.mu.Unlock()
		c.countReject(spec.Tenant, "saturated")
		obs.Emit(c.cfg.Tracer, obs.EventCampaignRejected, map[string]any{
			"tenant": spec.Tenant, "reason": "saturated",
		})
		return "", fmt.Errorf("%w: %d active campaigns", ErrSaturated, active)
	}
	c.seq++
	id := fmt.Sprintf("c%04d", c.seq)
	cp := &campaign{id: id, spec: spec, state: "queued", done: make(chan struct{})}
	cp.ctx, cp.cancel = context.WithCancel(c.rootCtx)
	c.camps[id] = cp
	c.order = append(c.order, id)
	c.mu.Unlock()

	// Journal before acknowledging: an accepted campaign must survive a
	// coordinator crash that happens the instant after Submit returns.
	data, err := json.MarshalIndent(specRecord{ID: id, Spec: spec}, "", "  ")
	if err == nil {
		err = fsx.WriteFile(c.specPath(id), append(data, '\n'), 0o644)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.camps, id)
		c.mu.Unlock()
		return "", fmt.Errorf("service: journaling campaign: %w", err)
	}
	obs.Emit(c.cfg.Tracer, obs.EventCampaignAccepted, map[string]any{
		"campaign": id,
		"tenant":   spec.Tenant,
		"name":     spec.Name,
		"workload": spec.Workload,
	})
	if c.cfg.Registry != nil {
		c.cfg.Registry.Counter("sharp_service_campaigns_accepted_total",
			"Campaigns admitted.", "tenant", spec.Tenant).Inc()
	}
	c.wg.Add(1)
	go c.runner(cp, false)
	return id, nil
}

func (c *Coordinator) countReject(tenant, reason string) {
	if c.cfg.Registry != nil {
		c.cfg.Registry.Counter("sharp_service_campaigns_rejected_total",
			"Campaigns rejected at admission.", "tenant", tenant, "reason", reason).Inc()
	}
}

// runner drives one campaign through a core.Launcher over the dispatch
// backend, streaming rows durably and journaling the outcome.
func (c *Coordinator) runner(cp *campaign, resume bool) {
	defer c.wg.Done()
	defer close(cp.done)

	select {
	case c.slots <- struct{}{}:
		defer func() { <-c.slots }()
	case <-cp.ctx.Done():
		c.finish(cp, nil, fmt.Errorf("%w before start: %v", core.ErrInterrupted, cp.ctx.Err()))
		return
	}

	cp.mu.Lock()
	cp.state = "running"
	cp.mu.Unlock()

	if c.cache != nil && !resume && c.tryCache(cp) {
		return
	}

	db := &dispatchBackend{campID: cp.id, sched: c.sched}
	e, err := cp.spec.experimentSpec().Experiment(db)
	if err != nil {
		c.finish(cp, nil, err)
		return
	}
	c.sched.register(cp.id, cp.spec)
	defer c.sched.unregister(cp.id)

	w, prior, err := c.openLog(cp.id, resume)
	if err != nil {
		c.finish(cp, nil, err)
		return
	}

	l := &core.Launcher{Clock: c.cfg.Clock, Tracer: c.cfg.Tracer, Log: w}
	if c.cfg.BudgetAware {
		// Publish the rule's convergence state after every merged run so the
		// lease scheduler can steer the worker pool toward the campaigns that
		// are furthest from stopping.
		l.OnProgress = func(p stopping.Progress) { c.sched.setUrgency(cp.id, p.Urgency()) }
	}
	var res *core.Result
	if len(prior) > 0 {
		res, err = l.Resume(cp.ctx, e, prior)
	} else {
		res, err = l.Run(cp.ctx, e)
	}
	w.Close()
	if c.cache != nil && err == nil && res != nil {
		c.mu.Lock()
		killed := c.killed
		c.mu.Unlock()
		if !killed {
			// Advisory: a failed store never fails the campaign.
			_ = c.cache.Put(cp.spec.cacheKey(), campaignCacheKind,
				res.Experiment.Name, res.Rows)
		}
	}
	c.finish(cp, res, err)
}

// openLog opens a campaign's row log: a fresh log, or for a recovered
// campaign its repaired log and the rows it keeps. A drain checkpoint gives
// the exact durable row count; without one, or when the cut to it fails,
// the (possibly torn) last run is dropped — re-measuring it is free and
// bit-identical. A log that cannot be repaired fails only its campaign.
func (c *Coordinator) openLog(id string, resume bool) (*record.Writer, []record.Row, error) {
	csv := c.csvPath(id)
	opts := record.Options{FlushEvery: 1}
	if _, err := os.Stat(csv); !resume || err != nil { // no log to repair
		w, err := record.CreateDurable(csv, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("service: opening row log: %w", err)
		}
		return w, nil, nil
	}
	checkpoint := -1
	if m, err := record.ParseMetadataFile(c.metaPath(id)); err == nil {
		if _, rows, ok := m.Checkpoint(); ok {
			checkpoint = rows
		}
	}
	w, rows, _, err := record.Reopen(csv, checkpoint, opts)
	if err != nil && checkpoint >= 0 {
		w, rows, _, err = record.Reopen(csv, -1, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("service: repairing %s: %w", csv, err)
	}
	return w, rows, nil
}

// tryCache answers a fresh campaign from the content-addressed cache: on a
// hit the cached rows are replayed through core.Launcher.ReplayLog (zero
// worker dispatches, bit-exact Result) and written as the campaign's durable
// CSV, so Status, ResultCSVPath, and a later recovery see exactly what a
// measured campaign would have left. Any replay or write problem falls back
// to measuring.
func (c *Coordinator) tryCache(cp *campaign) bool {
	spec := cp.spec.withDefaults()
	rows, _, err := c.cache.Get(cp.spec.cacheKey(), spec.Name)
	if err != nil || rows == nil {
		return false
	}
	e, err := cp.spec.experimentSpec().Experiment(nil)
	if err != nil {
		return false
	}
	l := &core.Launcher{Clock: c.cfg.Clock}
	res, err := l.ReplayLog(e, rows)
	if err != nil {
		// Unreplayable (or incomplete) entry: measure instead.
		return false
	}
	if err := record.WriteRowsAtomic(c.csvPath(cp.id), rows); err != nil {
		c.finish(cp, nil, fmt.Errorf("service: writing cached result: %w", err))
		return true
	}
	c.finish(cp, res, nil)
	return true
}

// finish journals a campaign outcome. Under kill (crash simulation) nothing
// is written: the durable row log IS the recovery state, exactly as after a
// real coordinator death.
func (c *Coordinator) finish(cp *campaign, res *core.Result, err error) {
	c.mu.Lock()
	killed := c.killed
	c.mu.Unlock()

	state := "done"
	switch {
	case err == nil:
		state = "done"
	case errors.Is(err, core.ErrInterrupted):
		state = "interrupted"
	default:
		state = "failed"
	}

	cp.mu.Lock()
	cp.state = state
	if res != nil {
		cp.runs = res.Runs
		cp.rows = len(res.Rows)
		cp.stopReason = res.StopReason
	}
	if err != nil {
		cp.errMsg = err.Error()
	}
	cp.mu.Unlock()

	if killed {
		return
	}

	var m *record.Metadata
	if res != nil {
		m = res.Metadata()
	} else {
		sut := c.sutFor(cp.spec)
		m = record.NewMetadata(cp.spec.Name, sut)
		m.Created = c.cfg.Clock().UTC()
		m.Set("workload", cp.spec.Workload)
	}
	m.Set("service_state", state)
	m.Set("tenant", cp.spec.Tenant)
	m.Set("campaign_id", cp.id)
	if err != nil {
		m.Set("service_error", strings.ReplaceAll(err.Error(), "\n", "; "))
	}
	if state == "interrupted" && res != nil {
		// Drain checkpoint: the durable CSV holds exactly len(res.Rows)
		// rows (replayed prefix + newly streamed); restart truncates to this
		// count and resumes bit-identically.
		m.SetCheckpoint(res.Runs, len(res.Rows))
	}
	if werr := m.WriteFile(c.metaPath(cp.id)); werr != nil {
		cp.mu.Lock()
		if cp.errMsg == "" {
			cp.errMsg = fmt.Sprintf("service: writing metadata: %v", werr)
		}
		cp.mu.Unlock()
	}
	if c.cfg.Registry != nil {
		c.cfg.Registry.Counter("sharp_service_campaigns_finished_total",
			"Campaigns finished.", "tenant", cp.spec.Tenant, "state", state).Inc()
	}
}

// sutFor builds the SUT descriptor for metadata when no Result exists.
func (c *Coordinator) sutFor(spec CampaignSpec) (out sysinfo.SUT) {
	if m, err := machine.ByName(spec.Machine); err == nil {
		return m.SUT()
	}
	return out
}

// Status returns one campaign's status.
func (c *Coordinator) Status(id string) (CampaignStatus, bool) {
	c.mu.Lock()
	cp, ok := c.camps[id]
	c.mu.Unlock()
	if !ok {
		return CampaignStatus{}, false
	}
	return cp.status(), true
}

// Campaigns lists all campaigns in admission order.
func (c *Coordinator) Campaigns() []CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CampaignStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.camps[id].status())
	}
	return out
}

// ResultCSVPath returns the campaign's durable row log path.
func (c *Coordinator) ResultCSVPath(id string) string { return c.csvPath(id) }

// Healthz snapshots service health.
func (c *Coordinator) Healthz() Health {
	c.mu.Lock()
	draining := c.draining
	active := 0
	for _, cp := range c.camps {
		if !cp.terminal() {
			active++
		}
	}
	c.mu.Unlock()
	h := Health{
		Status:            "ok",
		Draining:          draining,
		QueueDepth:        c.sched.queueDepth(),
		LeasesOutstanding: c.sched.outstanding(),
		ActiveCampaigns:   active,
		Workers:           c.sched.workerStates(),
	}
	if draining {
		h.Status = "draining"
	}
	return h
}

// Lease implements WorkerAPI for in-process workers.
func (c *Coordinator) Lease(_ context.Context, workerID string) (*Lease, error) {
	return c.sched.Lease(workerID)
}

// Heartbeat implements WorkerAPI.
func (c *Coordinator) Heartbeat(_ context.Context, leaseID string, token uint64) error {
	return c.sched.Heartbeat(leaseID, token)
}

// Complete implements WorkerAPI: a one-run CompleteRuns that asks for no
// next lease.
func (c *Coordinator) Complete(ctx context.Context, leaseID string, token uint64, res RunResult) error {
	_, err := c.CompleteRuns(ctx, leaseID, token, []RunResult{res}, "")
	return err
}

// CompleteRuns acknowledges a batch of a lease's runs all-or-nothing (see
// scheduler.Complete); workers use it to settle a whole lease at once. When
// the batch lands and next names a worker, the same call leases that worker
// its next batch, so a busy worker makes one call per lease. A nil lease
// with a nil error means the batch landed and nothing was granted: no next
// was asked for, or Lease(next) found no work, the coordinator draining, or
// the worker evicted. A rejected batch grants nothing.
func (c *Coordinator) CompleteRuns(_ context.Context, leaseID string, token uint64, results []RunResult, next string) (*Lease, error) {
	if err := c.sched.Complete(leaseID, token, results...); err != nil {
		return nil, err
	}
	if next == "" {
		return nil, nil
	}
	l, err := c.sched.Lease(next)
	if err != nil {
		return nil, nil // ErrNoWork, ErrDraining or ErrWorkerEvicted: the worker polls
	}
	return l, nil
}

// Drain gracefully winds the service down: stop admitting campaigns and
// issuing leases, give in-flight leases DrainGrace to land and merge, then
// interrupt the remaining campaigns at a run boundary — each writes a
// checkpoint so a later New() resumes it bit-identically.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.draining = true
	c.mu.Unlock()
	c.sched.setDraining(true)
	obs.Emit(c.cfg.Tracer, obs.EventServiceDrain, map[string]any{
		"grace": c.cfg.DrainGrace.String(),
	})

	// Wait (bounded) for outstanding leases to complete: those runs are
	// already computing on workers and will merge if we let them land.
	deadline := time.Now().Add(c.cfg.DrainGrace)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if c.allTerminal() || c.sched.outstanding() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Interrupt what's left; launchers checkpoint at the run boundary.
	c.mu.Lock()
	for _, cp := range c.camps {
		cp.cancel()
	}
	c.mu.Unlock()
	c.wg.Wait()
	c.rootCancel()
	c.janitorWG.Wait()
	c.closeCache()
	return ctx.Err()
}

func (c *Coordinator) allTerminal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cp := range c.camps {
		if !cp.terminal() {
			return false
		}
	}
	return true
}

// Close shuts down without the drain grace: campaigns are interrupted and
// checkpointed, then everything stops.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.sched.setDraining(true)
	c.rootCancel()
	c.wg.Wait()
	c.janitorWG.Wait()
	c.closeCache()
	return nil
}

// closeCache persists the result cache's lookup counters once no campaign
// can touch the cache any more. They are advisory: a failed write is
// dropped, as a failed cache Put is.
func (c *Coordinator) closeCache() {
	if c.cache != nil {
		_ = c.cache.Close()
	}
}
