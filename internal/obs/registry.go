package obs

// The metrics registry: counters, gauges and histograms exported in the
// Prometheus text exposition format (version 0.0.4). Stdlib-only — the
// format is plain text, and SHARP only needs the subset scrapers actually
// parse: # HELP, # TYPE, and sample lines with sorted label sets.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a concurrency-safe collection of named metrics. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	help   map[string]string // metric name -> HELP line
	kinds  map[string]string // metric name -> counter | gauge | histogram
	order  []string          // registration order of metric names
	series map[string]*series
}

// series is one (name, labels) time series.
type series struct {
	name   string
	labels string // rendered {k="v",...} or ""

	mu    sync.Mutex
	value float64 // counter / gauge value

	// histogram state (nil buckets = scalar series)
	buckets []float64 // upper bounds, ascending, +Inf excluded
	counts  []uint64  // one per bucket
	sum     float64
	count   uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		help:   map[string]string{},
		kinds:  map[string]string{},
		series: map[string]*series{},
	}
}

// labelString renders alternating key/value label pairs deterministically.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		labels = append(labels[:len(labels):len(labels)], "INVALID")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// get returns (creating if needed) the series for (name, labels), recording
// the metric's kind and help on first sight.
func (r *Registry) get(kind, name, help string, buckets []float64, labels []string) *series {
	ls := labelString(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		return s
	}
	if _, seen := r.kinds[name]; !seen {
		r.kinds[name] = kind
		r.help[name] = help
		r.order = append(r.order, name)
	}
	s := &series{name: name, labels: ls}
	if kind == "histogram" {
		s.buckets = append([]float64(nil), buckets...)
		sort.Float64s(s.buckets)
		s.counts = make([]uint64, len(s.buckets))
	}
	r.series[key] = s
	return s
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Counter returns the counter for (name, labels), creating it on first use.
// Labels are alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) Counter {
	return Counter{s: r.get("counter", name, help, nil, labels)}
}

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored — counters are monotone).
func (c Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.value += delta
	c.s.mu.Unlock()
}

// Value returns the current count.
func (c Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) Gauge {
	return Gauge{s: r.get("gauge", name, help, nil, labels)}
}

// Set replaces the gauge value.
func (g Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add adjusts the gauge by delta.
func (g Gauge) Add(delta float64) {
	g.s.mu.Lock()
	g.s.value += delta
	g.s.mu.Unlock()
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct{ s *series }

// DefBuckets is the default latency bucket layout (seconds).
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return Histogram{s: r.get("histogram", name, help, buckets, labels)}
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ub := range s.buckets {
		if v <= ub {
			s.counts[i]++
			break
		}
	}
	s.sum += v
	s.count++
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format. Output is deterministic: metric families appear in registration
// order and series within a family in sorted label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	kinds := make(map[string]string, len(r.kinds))
	help := make(map[string]string, len(r.help))
	for k, v := range r.kinds {
		kinds[k] = v
	}
	for k, v := range r.help {
		help[k] = v
	}
	byName := map[string][]*series{}
	for _, s := range r.series {
		byName[s.name] = append(byName[s.name], s)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range names {
		kind := kinds[name]
		if h := help[name]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		list := byName[name]
		sort.Slice(list, func(i, j int) bool { return list[i].labels < list[j].labels })
		for _, s := range list {
			s.mu.Lock()
			if kind == "histogram" {
				cum := uint64(0)
				for i, ub := range s.buckets {
					cum += s.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", name, mergeLabels(s.labels, "le", formatValue(ub)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", name, mergeLabels(s.labels, "le", "+Inf"), s.count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, s.labels, formatValue(s.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, s.labels, s.count)
			} else {
				fmt.Fprintf(&b, "%s%s %s\n", name, s.labels, formatValue(s.value))
			}
			s.mu.Unlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// mergeLabels inserts an extra label into an already-rendered label set.
func mergeLabels(rendered, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format (for GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(rw)
	})
}

// MetricsSink is a Tracer translating campaign events into registry metrics
// — the bridge that makes `--metrics-addr` useful without instrumenting
// every call site twice. It implements Tracer and can be combined with the
// JSONL/progress sinks via Multi.
type MetricsSink struct{ reg *Registry }

// NewMetricsSink returns a Tracer that folds events into r.
func NewMetricsSink(r *Registry) *MetricsSink { return &MetricsSink{reg: r} }

// Emit implements Tracer.
func (m *MetricsSink) Emit(typ string, fields map[string]any) {
	switch typ {
	case EventCampaignStart:
		m.reg.Counter("sharp_campaigns_total", "Measurement campaigns started.").Inc()
		m.reg.Gauge("sharp_campaign_runs", "Runs merged by the current campaign.").Set(0)
	case EventCampaignStop:
		m.reg.Counter("sharp_campaigns_finished_total", "Measurement campaigns finished.").Inc()
	case EventRunScheduled:
		m.reg.Counter("sharp_runs_scheduled_total", "Runs handed to the backend.").Inc()
	case EventRunMerged:
		status, _ := fields["status"].(string)
		if status == "" {
			status = "ok"
		}
		m.reg.Counter("sharp_runs_merged_total", "Runs folded into the result.", "status", status).Inc()
		m.reg.Gauge("sharp_campaign_runs", "Runs merged by the current campaign.").Add(1)
	case EventRetryAttempt:
		m.reg.Counter("sharp_retry_attempts_total", "Failed attempts scheduled for retry.").Inc()
	case EventBreakerTransition:
		to, _ := fields["to"].(string)
		m.reg.Counter("sharp_breaker_transitions_total", "Circuit breaker state transitions.", "to", to).Inc()
	case EventChaosInject:
		kind, _ := fields["kind"].(string)
		m.reg.Counter("sharp_chaos_injections_total", "Chaos-injected faults.", "kind", kind).Inc()
	case EventRuleEval:
		verdict, _ := fields["verdict"].(string)
		m.reg.Counter("sharp_rule_evals_total", "Stopping rule convergence evaluations.", "verdict", verdict).Inc()
		if stat, ok := fields["statistic"].(float64); ok {
			m.reg.Gauge("sharp_rule_statistic", "Latest stopping-rule convergence statistic.").Set(stat)
		}
	case EventFaasInvoke:
		status, _ := fields["status"].(string)
		m.reg.Counter("sharp_faas_invocations_total", "FaaS platform dispatches.", "status", status).Inc()
	}
}
