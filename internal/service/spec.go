// Package service is SHARP's fault-tolerant campaign coordinator: a
// multi-tenant HTTP service (cmd/sharp-serve) that accepts campaign
// submissions, shards their measured runs across a fleet of FaaS-style
// workers under leases, and is engineered around failure as the normal
// case — worker death, coordinator crashes, injected chaos — while keeping
// the merged row stream byte-identical to an undisturbed sequential run.
//
// The determinism story stands on two earlier pillars:
//
//   - Run-addressable backends. Sim and Chaos in run-ordered mode synthesize
//     draws as a function of the run index alone, so a FRESH backend that
//     first replays the campaign's warm-up requests can compute ANY measured
//     run bit-identically to the sequential campaign. Workers exploit this:
//     they hold no transferable state, and a kill -9'd worker's unfinished
//     runs are simply recomputed elsewhere with identical results.
//
//   - Resume accounting. The coordinator journals accepted campaigns and
//     streams every merged row to a durable CSV; after a coordinator crash,
//     each recovered campaign's runner repairs its log with record.Reopen and
//     core.Launcher.Resume replays it through the stopping rule, continuing
//     the campaign exactly where the row stream ends. A log that cannot be
//     repaired fails only its own campaign.
//
// Together: campaigns survive worker murder, lease expiry, admission
// pressure, graceful drain, and coordinator restarts with byte-identical
// result CSVs (differential-tested in service_test.go).
package service

import (
	"errors"
	"fmt"

	"sharp/internal/backend"
	"sharp/internal/core"
	"sharp/internal/perfmodel"
	"sharp/internal/stopping"
)

// campaignCacheKind versions the service campaign cache namespace; bump it
// if campaign execution semantics change in a way that invalidates cached
// rows.
const campaignCacheKind = "service-campaign/v2"

// ChaosSpec configures deterministic fault injection for a campaign. Rates
// follow backend.ChaosConfig; the seed defaults to the campaign seed.
// PanicRate is deliberately absent: an injected panic would kill the
// sequential reference launcher, so panics are not part of the service's
// byte-identity contract (workers still recover them defensively).
type ChaosSpec struct {
	Seed         uint64  `json:"seed,omitempty"`
	ErrorRate    float64 `json:"error_rate,omitempty"`
	TimeoutRate  float64 `json:"timeout_rate,omitempty"`
	LatencyRate  float64 `json:"latency_rate,omitempty"`
	LatencySpike float64 `json:"latency_spike,omitempty"`
}

// CampaignSpec is a campaign submission: everything a tenant provides, and
// everything a worker needs to rebuild the campaign's deterministic backend
// from scratch. It is the journal record, the wire format, and the lease
// payload all at once — one serializable source of truth.
type CampaignSpec struct {
	// Tenant identifies the submitting tenant (admission control is
	// per-tenant). Empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Name labels the experiment in rows and reports (default
	// "<workload>@<machine>").
	Name string `json:"name,omitempty"`
	// Workload is the benchmark to measure (must be known to perfmodel).
	Workload string `json:"workload"`
	// Machine is the simulated machine executing runs.
	Machine string `json:"machine"`
	// Rule is the stopping rule name (see stopping.Names()); empty = meta.
	Rule string `json:"rule,omitempty"`
	// Threshold is the rule threshold (0 = rule default).
	Threshold float64 `json:"threshold,omitempty"`
	// MinRuns/MaxRuns bound the campaign (0 = rule defaults).
	MinRuns int `json:"min_runs,omitempty"`
	MaxRuns int `json:"max_runs,omitempty"`
	// Seed is the experiment seed (0 = 42, the CLI default).
	Seed uint64 `json:"seed,omitempty"`
	// Day is the measurement-day coordinate (0 = 1).
	Day int `json:"day,omitempty"`
	// Concurrency is parallel instances per run (0 = 1).
	Concurrency int `json:"concurrency,omitempty"`
	// WarmupRuns are executed (and discarded) by every worker when it
	// builds its fresh backend, reproducing the sequential campaign's
	// stream position.
	WarmupRuns int `json:"warmup_runs,omitempty"`
	// Parallel is the number of runs the coordinator keeps in flight (the
	// launcher's Experiment.Parallel window); results are byte-identical at
	// any value.
	Parallel int `json:"parallel,omitempty"`
	// Chaos optionally injects deterministic faults.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// withDefaults normalizes the spec the way the CLI defaults its flags, so a
// service campaign and a `sharp run` campaign with the same inputs measure
// the same thing.
func (s CampaignSpec) withDefaults() CampaignSpec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Machine == "" {
		s.Machine = "machine1"
	}
	if s.Rule == "" {
		s.Rule = "meta"
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Day == 0 {
		s.Day = 1
	}
	if s.Concurrency < 1 {
		s.Concurrency = 1
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("%s@%s", s.Workload, s.Machine)
	}
	if s.Chaos != nil && s.Chaos.Seed == 0 {
		c := *s.Chaos
		c.Seed = s.Seed
		s.Chaos = &c
	}
	return s
}

// Validate rejects malformed specs at admission time, so tenants get a 400
// instead of a campaign that is doomed to abort.
func (s CampaignSpec) Validate() error {
	if s.Workload == "" {
		return errors.New("service: spec needs a workload")
	}
	if _, ok := perfmodel.For(s.Workload); !ok {
		return fmt.Errorf("service: unknown workload %q", s.Workload)
	}
	if err := s.experimentSpec().Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if c := s.Chaos; c != nil {
		// A rate of 1 fails every run: a campaign doomed to abort.
		for _, r := range []float64{c.ErrorRate, c.TimeoutRate, c.LatencyRate} {
			if r >= 1 {
				return fmt.Errorf("service: chaos rate %v out of range [0,1)", r)
			}
		}
	}
	return nil
}

// experimentSpec is the campaign as a core.Spec: the one description its
// reference experiment, coordinator experiment, worker backends, cache key
// and metadata all come from.
func (s CampaignSpec) experimentSpec() core.Spec {
	s = s.withDefaults()
	cs := core.Spec{
		Name:     s.Name,
		Workload: s.Workload,
		Backend:  core.BackendSpec{Kind: "sim", Machine: s.Machine, Seed: s.Seed},
		Rule: stopping.Spec{Kind: s.Rule, Threshold: s.Threshold, Bounds: stopping.Bounds{
			MinSamples: s.MinRuns,
			MaxSamples: s.MaxRuns,
		}},
		Concurrency: s.Concurrency,
		WarmupRuns:  s.WarmupRuns,
		Day:         s.Day,
		Seed:        s.Seed,
		Parallel:    s.Parallel,
	}
	if c := s.Chaos; c != nil {
		cs.Backend.Chaos = &backend.ChaosConfig{
			Seed:         c.Seed,
			ErrorRate:    c.ErrorRate,
			TimeoutRate:  c.TimeoutRate,
			LatencyRate:  c.LatencyRate,
			LatencySpike: c.LatencySpike,
		}
	}
	return cs
}

// cacheKey derives the campaign's content address from its spec's
// canonical encoding. Tenant and Parallel are deliberately absent — neither
// affects row bytes (service results are byte-identical to the sequential
// reference at any batch width), so campaigns submitted by different
// tenants or at different widths share cache entries.
func (s CampaignSpec) cacheKey() string {
	return s.experimentSpec().CacheKey(campaignCacheKind)
}

// WorkerBackend builds the fresh deterministic backend a worker uses to
// compute measured runs of this campaign: a run-ordered Sim (plus Chaos when
// configured). The worker then replays the spec's warm-up requests, putting
// the stream exactly where the sequential campaign's stream was when run 1
// began. Any measured run the worker is subsequently leased draws values
// bit-identical to the sequential campaign's — regardless of arrival order,
// other workers' progress, or how many earlier leases died.
func (s CampaignSpec) WorkerBackend() (backend.Backend, error) {
	b, err := s.experimentSpec().Backend.Build(nil)
	if err != nil {
		return nil, err
	}
	backend.SetRunOrdered(b, true)
	return b, nil
}

// ReferenceExperiment assembles the undisturbed sequential ground truth for
// this spec: the same campaign run by a plain core.Launcher over a local
// backend, no service involved. The differential tests compare service
// output bytes against it; operators can use it to audit a service result.
func (s CampaignSpec) ReferenceExperiment() (core.Experiment, error) {
	if err := s.withDefaults().Validate(); err != nil {
		return core.Experiment{}, err
	}
	cs := s.experimentSpec()
	cs.Parallel = 0
	return cs.Experiment(nil)
}
