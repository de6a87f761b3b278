package service

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sharp/internal/obs"
	"sharp/internal/resilience"
)

// Sentinel errors of the lease protocol and admission control.
var (
	// ErrNoWork means the queue has nothing to lease right now.
	ErrNoWork = errors.New("service: no work available")
	// ErrDraining means the coordinator is draining and issues no new
	// leases (and accepts no new campaigns).
	ErrDraining = errors.New("service: draining")
	// ErrStaleLease means the lease is gone or the fencing token does not
	// match — the caller lost the lease (expiry reassigned its runs) and
	// must discard any local results for it.
	ErrStaleLease = errors.New("service: stale lease")
	// ErrWorkerEvicted means the worker's circuit breaker is open: it
	// missed heartbeats or returned failures recently and may not take
	// leases until the cooldown elapses.
	ErrWorkerEvicted = errors.New("service: worker evicted")
	// ErrTenantSaturated means the tenant's admission quota is full; the
	// HTTP layer maps it to 429 + Retry-After.
	ErrTenantSaturated = errors.New("service: tenant queue full")
	// ErrSaturated means the coordinator-wide campaign bound is reached.
	ErrSaturated = errors.New("service: coordinator at capacity")
)

// InvResult is one concurrent instance's result on the wire. Metrics travel
// as JSON numbers; Go's float64 JSON round-trip is exact (shortest-form
// encoding), so transporting a run through a worker preserves byte-identity
// of the merged CSV.
type InvResult struct {
	Instance int                `json:"instance"`
	Worker   string             `json:"worker,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Err      string             `json:"err,omitempty"`
	Attempts int                `json:"attempts,omitempty"`
}

// RunResult is one completed measured run on the wire: everything the
// coordinator needs to reconstruct the backend.Invocation slice (and
// request-level error) that a local backend would have returned.
type RunResult struct {
	Run         int         `json:"run"`
	Invocations []InvResult `json:"invocations"`
	Err         string      `json:"err,omitempty"`
}

// Lease is a batch of measured runs granted to one worker: the contract is
// "compute these runs of this campaign and Complete them before the
// deadline, heartbeating along the way" — in one batch, or in several
// batches that together cover every run. The fencing token is strictly
// monotonic across all leases the coordinator ever issues; once a lease
// expires, its token is stale forever, so a resurrected worker completing
// against an old token is rejected instead of double-delivering a run that
// was already reassigned.
type Lease struct {
	ID         string        `json:"id"`
	Token      uint64        `json:"token"`
	CampaignID string        `json:"campaign_id"`
	Spec       CampaignSpec  `json:"spec"`
	Runs       []int         `json:"runs"`
	TTL        time.Duration `json:"ttl"`
}

// task is one measured run awaiting execution. The launcher's dispatch
// backend blocks on result; the scheduler delivers into it from whichever
// lease finally completes the run. The buffer of 1 plus fencing guarantees
// exactly one delivery ever lands.
type task struct {
	campID    string
	run       int
	result    chan RunResult
	mu        sync.Mutex
	abandoned bool
}

func (t *task) abandon() {
	t.mu.Lock()
	t.abandoned = true
	t.mu.Unlock()
}

func (t *task) isAbandoned() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.abandoned
}

// lease is the coordinator-side lease record.
type lease struct {
	id       string
	token    uint64
	worker   string
	campID   string
	deadline time.Time
	tasks    map[int]*task // unacknowledged runs
}

// scheduler owns the run queue and the lease table: the part of the
// coordinator that decides which worker computes which runs, notices worker
// death (missed heartbeats → expired lease), and reassigns exactly the
// unacknowledged runs. It never touches campaign results — determinism
// lives in the backends; the scheduler only moves run indices around, which
// is why any interleaving of grants, expiries, and completions yields the
// same merged bytes.
type scheduler struct {
	ttl       time.Duration
	batch     int
	now       func() time.Time
	tracer    obs.Tracer
	reg       *obs.Registry
	breakerCf resilience.BreakerConfig
	// budgetAware switches Lease from strict FIFO to urgency-ordered head
	// selection: the queued campaign whose stopping rule is furthest from
	// convergence is served first (Config.BudgetAware).
	budgetAware bool

	mu       sync.Mutex
	queue    []*task
	leases   map[string]*lease
	specs    map[string]CampaignSpec // campaigns currently registered
	urgency  map[string]float64      // latest rule urgency per campaign
	breakers map[string]*resilience.Breaker
	seq      uint64 // lease id sequence
	token    uint64 // fencing token sequence (strictly monotonic)
	draining bool
}

func newScheduler(ttl time.Duration, batch int, now func() time.Time, tracer obs.Tracer, reg *obs.Registry, bcf resilience.BreakerConfig) *scheduler {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	if batch < 1 {
		batch = 4
	}
	if now == nil {
		now = time.Now
	}
	return &scheduler{
		ttl:       ttl,
		batch:     batch,
		now:       now,
		tracer:    tracer,
		reg:       reg,
		breakerCf: bcf,
		leases:    map[string]*lease{},
		specs:     map[string]CampaignSpec{},
		urgency:   map[string]float64{},
		breakers:  map[string]*resilience.Breaker{},
	}
}

// setUrgency records a campaign's latest stopping-rule urgency (published by
// the runner's OnProgress hook). Budget-aware Lease orders queued campaigns
// by it; campaigns that have never reported are maximally urgent.
func (s *scheduler) setUrgency(campID string, u float64) {
	s.mu.Lock()
	s.urgency[campID] = u
	s.mu.Unlock()
	if s.reg != nil && !math.IsInf(u, 0) && !math.IsNaN(u) {
		s.reg.Gauge("sharp_service_campaign_urgency",
			"Latest stopping-rule urgency per campaign.", "campaign", campID).Set(u)
	}
}

// urgencyLocked returns the campaign's recorded urgency, +Inf if it has
// never reported (nothing is known, so it is maximally urgent).
func (s *scheduler) urgencyLocked(campID string) float64 {
	if u, ok := s.urgency[campID]; ok {
		return u
	}
	return math.Inf(1)
}

// register makes a campaign leaseable (its spec rides along in every lease
// so workers can rebuild the backend without a second lookup).
func (s *scheduler) register(campID string, spec CampaignSpec) {
	s.mu.Lock()
	s.specs[campID] = spec
	s.mu.Unlock()
}

// unregister removes a finished campaign: its leases are dropped (their
// fencing tokens go stale) and any queued tasks are purged.
func (s *scheduler) unregister(campID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.specs, campID)
	delete(s.urgency, campID)
	for id, l := range s.leases {
		if l.campID == campID {
			delete(s.leases, id)
		}
	}
	s.purgeLocked(campID)
}

// purgeLocked drops every queued task of a campaign (caller holds s.mu).
func (s *scheduler) purgeLocked(campID string) {
	kept := s.queue[:0]
	for _, t := range s.queue {
		if t.campID != campID {
			kept = append(kept, t)
		}
	}
	s.queue = kept
}

// enqueue adds one measured run to the tail of the global FIFO queue.
func (s *scheduler) enqueue(t *task) {
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.gaugeLocked()
	s.mu.Unlock()
}

// requeueFront puts reassigned tasks back at the FRONT of the queue in
// ascending run order: runs orphaned by a dead worker are the oldest
// outstanding work and gate the launcher's merge, so they must be re-leased
// before anything newer.
func (s *scheduler) requeueFrontLocked(ts []*task) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].run < ts[j].run })
	s.queue = append(append(make([]*task, 0, len(ts)+len(s.queue)), ts...), s.queue...)
}

// breaker returns the worker's circuit breaker, creating it on first sight.
func (s *scheduler) breakerLocked(worker string) *resilience.Breaker {
	b, ok := s.breakers[worker]
	if !ok {
		cf := s.breakerCf
		prev := cf.OnTransition
		cf.OnTransition = func(from, to resilience.State) {
			if to == resilience.Open {
				obs.Emit(s.tracer, obs.EventWorkerEvicted, map[string]any{
					"worker": worker,
					"from":   from.String(),
				})
				if s.reg != nil {
					s.reg.Counter("sharp_service_evictions_total",
						"Workers evicted by circuit breaker.", "worker", worker).Inc()
				}
			}
			if prev != nil {
				prev(from, to)
			}
		}
		b = resilience.NewBreaker(cf)
		s.breakers[worker] = b
	}
	return b
}

// Lease grants the next batch of runs to a worker. The batch is up to
// `batch` runs of ONE campaign (the one at the head of the queue): a single
// fresh backend computes them all, amortizing the warm-up replay.
func (s *scheduler) Lease(workerID string) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if !s.breakerLocked(workerID).Allow() {
		return nil, ErrWorkerEvicted
	}
	var head *task
	var spec CampaignSpec
	for {
		if head = s.headLocked(); head == nil {
			s.gaugeLocked()
			return nil, ErrNoWork
		}
		var ok bool
		if spec, ok = s.specs[head.campID]; ok {
			break
		}
		// Campaign unregistered with tasks still queued: drop only its
		// tasks and look again, so other campaigns' runs stay queued.
		s.purgeLocked(head.campID)
	}
	// Collect up to batch tasks of the head campaign, preserving FIFO order
	// of everything else.
	taken := make([]*task, 0, s.batch)
	rest := s.queue[:0]
	for _, t := range s.queue {
		if t.campID == head.campID && len(taken) < s.batch {
			taken = append(taken, t)
			continue
		}
		rest = append(rest, t)
	}
	s.queue = rest

	s.seq++
	s.token++
	l := &lease{
		id:       fmt.Sprintf("l%06d", s.seq),
		token:    s.token,
		worker:   workerID,
		campID:   head.campID,
		deadline: s.now().Add(s.ttl),
		tasks:    make(map[int]*task, len(taken)),
	}
	runs := make([]int, 0, len(taken))
	for _, t := range taken {
		l.tasks[t.run] = t
		runs = append(runs, t.run)
	}
	sort.Ints(runs)
	s.leases[l.id] = l
	s.gaugeLocked()
	obs.Emit(s.tracer, obs.EventLeaseGranted, map[string]any{
		"lease":    l.id,
		"token":    l.token,
		"worker":   workerID,
		"campaign": l.campID,
		"runs":     len(runs),
	})
	if s.reg != nil {
		s.reg.Counter("sharp_service_leases_total", "Leases granted.", "worker", workerID).Inc()
	}
	return &Lease{
		ID:         l.id,
		Token:      l.token,
		CampaignID: l.campID,
		Spec:       spec,
		Runs:       runs,
		TTL:        s.ttl,
	}, nil
}

// headLocked drops abandoned tasks (their campaign was cancelled or their
// run already merged through another path) and returns the task whose
// campaign the next lease serves, nil when nothing is queued.
func (s *scheduler) headLocked() *task {
	kept := s.queue[:0]
	var head *task
	for _, t := range s.queue {
		if t.isAbandoned() {
			continue
		}
		if head == nil {
			head = t
		}
		kept = append(kept, t)
	}
	s.queue = kept
	if head == nil || !s.budgetAware {
		return head
	}
	// Serve the queued campaign furthest from convergence. Ties (and the
	// common single-campaign case) keep FIFO order: only a strictly more
	// urgent campaign displaces an earlier-queued one.
	best := s.urgencyLocked(head.campID)
	seen := map[string]bool{head.campID: true}
	for _, t := range s.queue {
		if seen[t.campID] {
			continue
		}
		seen[t.campID] = true
		if u := s.urgencyLocked(t.campID); u > best {
			best, head = u, t
		}
	}
	return head
}

// Heartbeat extends a live lease's deadline. A stale token (or a lease
// already expired and reassigned) gets ErrStaleLease: the worker must drop
// the batch.
func (s *scheduler) Heartbeat(leaseID string, token uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[leaseID]
	if !ok || l.token != token {
		return ErrStaleLease
	}
	l.deadline = s.now().Add(s.ttl)
	return nil
}

// Complete acknowledges a batch of runs of one lease. Fencing first:
// completions carrying a stale token are rejected — their runs were already
// reassigned, and accepting them could deliver a run twice. The batch is
// all-or-nothing: it must be non-empty, every run must be outstanding on the
// lease, and no run may appear twice, or nothing is delivered and the lease
// is untouched. Accepted results are handed to the waiting dispatch backends
// and count as a worker success.
func (s *scheduler) Complete(leaseID string, token uint64, results ...RunResult) error {
	s.mu.Lock()
	l, ok := s.leases[leaseID]
	if !ok || l.token != token {
		s.mu.Unlock()
		return ErrStaleLease
	}
	if len(results) == 0 {
		s.mu.Unlock()
		return fmt.Errorf("service: lease %s: empty completion", leaseID)
	}
	tasks := make([]*task, len(results))
	seen := make(map[int]bool, len(results))
	for i, res := range results {
		t, ok := l.tasks[res.Run]
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("service: lease %s does not hold run %d", leaseID, res.Run)
		}
		if seen[res.Run] {
			s.mu.Unlock()
			return fmt.Errorf("service: lease %s: run %d listed twice", leaseID, res.Run)
		}
		seen[res.Run] = true
		tasks[i] = t
	}
	for _, res := range results {
		delete(l.tasks, res.Run)
	}
	l.deadline = s.now().Add(s.ttl) // progress is the best heartbeat
	if len(l.tasks) == 0 {
		delete(s.leases, leaseID)
	}
	s.breakerLocked(l.worker).Success()
	s.mu.Unlock()

	// Deliver outside the lock. The buffer of 1 plus fencing (exactly one
	// live lease ever holds a task) makes this non-blocking; the default
	// arm is pure defense.
	for i, t := range tasks {
		select {
		case t.result <- results[i]:
		default:
		}
	}
	return nil
}

// expire sweeps the lease table: every lease past its deadline is revoked,
// its worker takes a breaker failure (missed heartbeats are the primary
// death signal), and its unacknowledged runs are requeued at the front.
// Called by the coordinator's janitor; also directly from tests.
func (s *scheduler) expire() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	n := 0
	for id, l := range s.leases {
		if !now.After(l.deadline) {
			continue
		}
		n++
		delete(s.leases, id)
		s.breakerLocked(l.worker).Failure()
		orphans := make([]*task, 0, len(l.tasks))
		runs := make([]int, 0, len(l.tasks))
		for run, t := range l.tasks {
			if t.isAbandoned() {
				continue
			}
			orphans = append(orphans, t)
			runs = append(runs, run)
		}
		sort.Ints(runs)
		s.requeueFrontLocked(orphans)
		obs.Emit(s.tracer, obs.EventLeaseExpired, map[string]any{
			"lease":    id,
			"worker":   l.worker,
			"campaign": l.campID,
			"orphans":  len(orphans),
		})
		for _, run := range runs {
			obs.Emit(s.tracer, obs.EventLeaseReassigned, map[string]any{
				"lease":    id,
				"campaign": l.campID,
				"run":      run,
			})
		}
		if s.reg != nil {
			s.reg.Counter("sharp_service_lease_expiries_total",
				"Leases expired (missed heartbeats).", "worker", l.worker).Inc()
			s.reg.Counter("sharp_service_runs_reassigned_total",
				"Runs reassigned after lease expiry.").Add(float64(len(orphans)))
		}
	}
	s.gaugeLocked()
	return n
}

// setDraining stops lease issuance; in-flight leases may still heartbeat
// and complete, which is exactly what graceful drain wants.
func (s *scheduler) setDraining(on bool) {
	s.mu.Lock()
	s.draining = on
	s.mu.Unlock()
}

// outstanding returns the number of live leases.
func (s *scheduler) outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// queueDepth returns the number of live queued tasks.
func (s *scheduler) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.queue {
		if !t.isAbandoned() {
			n++
		}
	}
	return n
}

// workerStates snapshots every known worker's breaker state for /healthz.
func (s *scheduler) workerStates() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.breakers))
	for w, b := range s.breakers {
		out[w] = b.State().String()
	}
	return out
}

// gaugeLocked updates the queue-depth gauge (caller holds s.mu).
func (s *scheduler) gaugeLocked() {
	if s.reg == nil {
		return
	}
	n := 0
	for _, t := range s.queue {
		if !t.isAbandoned() {
			n++
		}
	}
	s.reg.Gauge("sharp_service_queue_depth", "Measured runs awaiting lease.").Set(float64(n))
	s.reg.Gauge("sharp_service_leases_outstanding", "Live leases.").Set(float64(len(s.leases)))
}
