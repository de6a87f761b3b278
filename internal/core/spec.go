package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"sharp/internal/backend"
	"sharp/internal/cache"
	"sharp/internal/config"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/resilience"
	"sharp/internal/stopping"
)

// Spec is every input that shapes a campaign's rows, in one serialisable
// value: the CLI, config files, the service, sweep cells, the GUI and the
// workflow runner fill it, Spec.Experiment is the one function that builds
// an Experiment from it, Result.Metadata records it in its canonical
// encoding (Encode), RecreateExperiment decodes it, and the sweep-cell and
// service-campaign cache keys hash it (CacheKey).
type Spec struct {
	Name     string   `json:"name,omitempty"`
	Workload string   `json:"workload"`
	Args     []string `json:"args,omitempty"`
	// Backend describes the execution stack runs go to.
	Backend BackendSpec `json:"backend"`
	// Rule is the stopping rule as stopping.NewNamed builds it; an empty
	// Kind takes the Experiment default (meta).
	Rule        stopping.Spec `json:"rule"`
	Metric      string        `json:"metric,omitempty"`
	Concurrency int           `json:"concurrency,omitempty"`
	WarmupRuns  int           `json:"warmup_runs,omitempty"`
	Cold        bool          `json:"cold,omitempty"`
	Day         int           `json:"day,omitempty"`
	Seed        uint64        `json:"seed,omitempty"`
	// Timeout bounds each instance, in nanoseconds when encoded.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Retry is the retry policy; Retryable is runtime-only (a function)
	// and is set on the built Experiment by callers that classify errors.
	Retry         resilience.Policy `json:"retry"`
	FailureBudget FailureBudget     `json:"failure_budget"`
	Parallel      int               `json:"parallel,omitempty"`
}

// BackendSpec describes a campaign's backend: a Sim rebuilt from its
// machine and seed, or a live backend (kernel, faas, process, the service's
// dispatch) named by the Backend.Name its rows record, optionally wrapped
// in deterministic fault injection. Chaos keeps backend.ChaosConfig's field
// names.
type BackendSpec struct {
	Kind    string               `json:"kind"`
	Machine string               `json:"machine,omitempty"`
	Seed    uint64               `json:"seed,omitempty"`
	Chaos   *backend.ChaosConfig `json:"chaos,omitempty"`
}

// kindSim is the one backend kind a spec rebuilds on its own.
const kindSim = "sim"

// paramSpec is the metadata parameter holding the encoded spec.
const paramSpec = "spec"

// Build returns the backend stack b describes on base: base itself, or a
// fresh Sim on Machine seeded with Seed when base is nil and Kind is sim,
// wrapped in fault injection when Chaos is set. Any other kind needs base.
func (b BackendSpec) Build(base backend.Backend) (backend.Backend, error) {
	if base == nil {
		if b.Kind != kindSim {
			return nil, fmt.Errorf("core: backend %q cannot be recreated automatically; supply it", b.Kind)
		}
		m, err := machine.ByName(b.Machine)
		if err != nil {
			return nil, err
		}
		base = backend.NewSim(m, b.Seed)
	}
	if b.Chaos != nil {
		base = backend.NewChaos(base, *b.Chaos)
	}
	return base, nil
}

// Validate rejects a spec that cannot build an Experiment or be encoded:
// no workload or backend kind, an unknown machine for a sim backend, an
// unknown rule kind, a chaos rate outside [0,1], or a non-finite number.
func (s Spec) Validate() error {
	if s.Workload == "" {
		return errors.New("core: experiment needs a workload")
	}
	switch s.Backend.Kind {
	case "":
		return errors.New("core: experiment needs a backend kind")
	case kindSim:
		if _, err := machine.ByName(s.Backend.Machine); err != nil {
			return err
		}
	}
	if s.Rule.Kind != "" && !slices.Contains(stopping.Names(), s.Rule.Kind) {
		return fmt.Errorf("stopping: unknown rule %q", s.Rule.Kind)
	}
	finite := []float64{s.Rule.Threshold, s.Retry.Multiplier, s.Retry.Jitter, s.FailureBudget.MaxFraction}
	if c := s.Backend.Chaos; c != nil {
		for _, r := range []float64{c.ErrorRate, c.TimeoutRate, c.LatencyRate, c.PanicRate} {
			if !(r >= 0 && r <= 1) {
				return fmt.Errorf("core: chaos rate %v out of range [0,1]", r)
			}
		}
		finite = append(finite, c.LatencySpike)
	}
	for _, x := range finite {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: spec holds a non-finite number (%v)", x)
		}
	}
	return nil
}

// Experiment builds the campaign s describes. live is the backend stack for
// a kind the spec cannot rebuild (kernel, faas, the service's dispatch
// backend), used as given; nil builds it from s.Backend. The Experiment
// remembers s, so Result.Metadata records it.
func (s Spec) Experiment(live backend.Backend) (Experiment, error) {
	if err := s.Validate(); err != nil {
		return Experiment{}, err
	}
	b := live
	if b == nil {
		var err error
		if b, err = s.Backend.Build(nil); err != nil {
			return Experiment{}, err
		}
	}
	e := Experiment{
		Name:          s.Name,
		Workload:      s.Workload,
		Args:          s.Args,
		Backend:       b,
		Metric:        s.Metric,
		Concurrency:   s.Concurrency,
		Timeout:       s.Timeout,
		WarmupRuns:    s.WarmupRuns,
		Cold:          s.Cold,
		Day:           s.Day,
		Seed:          s.Seed,
		Parallel:      s.Parallel,
		Retry:         s.Retry,
		FailureBudget: s.FailureBudget,
	}
	if s.Rule.Kind != "" {
		e.Rule, _ = s.Rule.New() // the kind is checked by Validate
	}
	if s.Backend.Kind == kindSim {
		m, _ := machine.ByName(s.Backend.Machine) // checked by Validate
		e.SUT = m.SUT()
	}
	if c := s.Backend.Chaos; c != nil {
		cfg := *c
		s.Backend.Chaos = &cfg
	}
	e.spec = &s
	return e, nil
}

// Encode returns the canonical encoding of s: compact JSON with the fields
// in declaration order and zero values left out. Equal specs encode to
// equal bytes, and DecodeSpec(Encode(s)) encodes back to the same bytes.
func (s Spec) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSpec decodes one encoded spec, rejecting unknown fields and
// trailing data. It does not validate.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("core: bad spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("core: bad spec: trailing data")
	}
	return s, nil
}

// CacheKey is the content address of the rows s produces: its canonical
// encoding hashed in the kind namespace. Parallel is left out, since rows
// are byte-identical at any width. s must be valid.
func (s Spec) CacheKey(kind string) string {
	s.Parallel = 0
	b, _ := s.Encode()
	return cache.Key(kind, string(b))
}

// RecreateExperiment rebuilds the Experiment a metadata record describes:
// the spec Result.Metadata recorded, or the per-field parameters records
// written before the spec encoding carried (legacySpec). A sim backend is
// rebuilt; any other kind must be supplied in backends, keyed by the name
// its rows record ("inprocess", "faas", ...).
func RecreateExperiment(m *record.Metadata, backends map[string]backend.Backend) (Experiment, error) {
	var s Spec
	var err error
	if enc := m.Get(paramSpec); enc != "" {
		s, err = DecodeSpec([]byte(enc))
	} else {
		s, err = legacySpec(m)
	}
	if err != nil {
		return Experiment{}, err
	}
	b, err := s.Backend.Build(backends[s.Backend.Kind])
	if err != nil {
		return Experiment{}, err
	}
	e, err := s.Experiment(b)
	e.SUT = m.SUT
	return e, err
}

// legacySpec maps a metadata record written before the spec encoding, one
// parameter per field ("rule: ks-0.1", "min_samples", "backend_seed",
// "retries", "failure_budget", ...), onto a Spec. Such records carry no
// chaos settings. A self-similarity rule takes NewNamed's seed, the one the
// recorded campaign drew from.
func legacySpec(m *record.Metadata) (Spec, error) {
	atoi := func(key string) int {
		n, _ := strconv.Atoi(m.Get(key))
		return n
	}
	u64 := func(key string, def uint64) uint64 {
		if n, err := strconv.ParseUint(m.Get(key), 10, 64); err == nil {
			return n
		}
		return def
	}
	s := Spec{
		Name:        m.Experiment,
		Workload:    m.Get("workload"),
		Backend:     BackendSpec{Kind: m.Get("backend")},
		Metric:      m.Get("metric"),
		Concurrency: atoi("concurrency"),
		WarmupRuns:  atoi("warmup_runs"),
		Cold:        m.Get("cold") == "true",
		Day:         atoi("day"),
		Seed:        u64("seed", 0),
		Parallel:    atoi("parallel"),
	}
	if s.Workload == "" {
		return s, errors.New("core: metadata records no spec and no workload")
	}
	if s.Backend.Kind == kindSim {
		s.Backend.Machine = m.Get("machine")
		s.Backend.Seed = u64("backend_seed", s.Seed)
	}
	if a := m.Get("args"); a != "" {
		if err := json.Unmarshal([]byte(a), &s.Args); err != nil && strings.HasPrefix(a, "[") && strings.HasSuffix(a, "]") {
			// The oldest records rendered args with %v ("[a b c]"): lossy
			// for values containing spaces, recoverable for simple ones.
			s.Args = strings.Fields(a[1 : len(a)-1])
		}
	}
	s.Timeout, _ = time.ParseDuration(m.Get("timeout"))
	if r := atoi("retries"); r > 1 {
		s.Retry = resilience.Policy{MaxAttempts: r, Seed: u64("retry_seed", 0)}
		s.Retry.BaseDelay, _ = time.ParseDuration(m.Get("retry_base_delay"))
	}
	if m.Get("failure_budget") != "" || m.Get("max_consecutive_failures") != "" {
		s.FailureBudget.MaxFraction, _ = strconv.ParseFloat(m.Get("failure_budget"), 64)
		s.FailureBudget.MaxConsecutive = atoi("max_consecutive_failures")
		s.FailureBudget.MinRuns = atoi("failure_min_runs")
	}
	if name := m.Get("rule"); name != "" {
		r, err := stopping.ParseName(name)
		if err != nil {
			return s, err
		}
		r.MinSamples, r.MaxSamples, r.CheckEvery = atoi("min_samples"), atoi("max_samples"), atoi("check_every")
		s.Rule = r
	}
	return s, nil
}

// ExperimentFromConfig builds an Experiment from a configuration document —
// the launcher's file-driven mode (§IV-a: behavior "controlled via the
// command line ... or a JSON or YAML interface"): it fills a Spec from the
// keys below and builds it like every other path. A sim backend becomes the
// spec's backend; any other type (process) is built by backend.FromConfig
// and passed in live. Expected structure:
//
//	experiment:
//	  name: nightly-hotspot
//	  workload: hotspot
//	  args: [--size, "1024"]
//	  rule: ks
//	  threshold: 0.1
//	  max_runs: 1000
//	  min_runs: 10
//	  warmup_runs: 2
//	  concurrency: 1
//	  parallel: 4
//	  cold: false
//	  day: 1
//	  seed: 42
//	  metric: exec_time
//	  timeout: 30s
//	  retries: 3              # total attempts per run (resilience.Wrap)
//	  retry_base_delay: 10ms
//	  failure_budget: 0.5     # abort past this failed-run fraction
//	  max_consecutive_failures: 10
//	  chaos:                  # optional deterministic fault injection
//	    error_rate: 0.1
//	    timeout_rate: 0.05
//	    latency_rate: 0.05
//	    latency_spike: 0.25
//	    panic_rate: 0
//	    seed: 42
//	  backend:
//	    type: sim
//	    machine: machine1
//	    seed: 42
func ExperimentFromConfig(doc *config.Document, path string) (Experiment, error) {
	key := func(k string) string { return path + "." + k }
	s := Spec{
		Name:        doc.String(key("name"), ""),
		Workload:    doc.String(key("workload"), ""),
		Args:        doc.Strings(key("args")),
		Metric:      doc.String(key("metric"), ""),
		Concurrency: doc.Int(key("concurrency"), 1),
		WarmupRuns:  doc.Int(key("warmup_runs"), 0),
		Cold:        doc.Bool(key("cold"), false),
		Day:         doc.Int(key("day"), 1),
		Seed:        uint64(doc.Int(key("seed"), 42)),
		Parallel:    doc.Int(key("parallel"), 0),
		Rule: stopping.Spec{
			Kind:      doc.String(key("rule"), "meta"),
			Threshold: doc.Float(key("threshold"), 0),
			Bounds: stopping.Bounds{
				MinSamples: doc.Int(key("min_runs"), 0),
				MaxSamples: doc.Int(key("max_runs"), 0),
			},
		},
		FailureBudget: FailureBudget{
			MaxFraction:    doc.Float(key("failure_budget"), 0),
			MaxConsecutive: doc.Int(key("max_consecutive_failures"), 0),
		},
	}
	if s.Workload == "" {
		return Experiment{}, errors.New("core: config: experiment needs a workload")
	}
	if t := doc.String(key("timeout"), ""); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil {
			return Experiment{}, fmt.Errorf("core: config: bad timeout: %w", err)
		}
		s.Timeout = d
	}
	if r := doc.Int(key("retries"), 1); r > 1 {
		s.Retry = resilience.Policy{MaxAttempts: r}
		if d := doc.String(key("retry_base_delay"), ""); d != "" {
			bd, err := time.ParseDuration(d)
			if err != nil {
				return Experiment{}, fmt.Errorf("core: config: bad retry_base_delay: %w", err)
			}
			s.Retry.BaseDelay = bd
		}
	}
	if doc.Map(key("chaos")) != nil {
		s.Backend.Chaos = &backend.ChaosConfig{
			Seed:         uint64(doc.Int(key("chaos.seed"), int(s.Seed))),
			ErrorRate:    doc.Float(key("chaos.error_rate"), 0),
			TimeoutRate:  doc.Float(key("chaos.timeout_rate"), 0),
			LatencyRate:  doc.Float(key("chaos.latency_rate"), 0),
			LatencySpike: doc.Float(key("chaos.latency_spike"), 0),
			PanicRate:    doc.Float(key("chaos.panic_rate"), 0),
		}
	}
	b, err := backend.FromConfig(doc, key("backend"))
	if err != nil {
		return Experiment{}, err
	}
	if sim, ok := b.(*backend.Sim); ok {
		s.Backend.Kind, s.Backend.Machine, s.Backend.Seed = kindSim, sim.Machine.Name, sim.Seed
		return s.Experiment(nil)
	}
	s.Backend.Kind = b.Name()
	b, _ = s.Backend.Build(b) // only a missing base fails
	return s.Experiment(b)
}
