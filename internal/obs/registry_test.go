package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter", "k", "v")
	c.Inc()
	c.Add(2)
	c.Add(-5) // counters are monotone: ignored
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
	h := r.Histogram("h_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("histogram count = %d, want 4", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sharp_runs_total", "Total runs.", "status", "ok").Add(5)
	r.Counter("sharp_runs_total", "Total runs.", "status", "error").Add(1)
	r.Gauge("sharp_rule_statistic", "Latest statistic.").Set(0.25)
	h := r.Histogram("sharp_exec_seconds", "Exec time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sharp_runs_total Total runs.",
		"# TYPE sharp_runs_total counter",
		`sharp_runs_total{status="error"} 1`,
		`sharp_runs_total{status="ok"} 5`,
		"# TYPE sharp_rule_statistic gauge",
		"sharp_rule_statistic 0.25",
		"# TYPE sharp_exec_seconds histogram",
		`sharp_exec_seconds_bucket{le="0.1"} 1`,
		`sharp_exec_seconds_bucket{le="1"} 2`,
		`sharp_exec_seconds_bucket{le="+Inf"} 3`,
		"sharp_exec_seconds_sum 5.55",
		"sharp_exec_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output: rendering twice must be byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("exposition not deterministic across renders")
	}
}

func TestLabelOrderIndependence(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "m", "a", "1", "b", "2").Inc()
	r.Counter("m_total", "m", "b", "2", "a", "1").Inc() // same series, reordered labels
	if got := r.Counter("m_total", "m", "a", "1", "b", "2").Value(); got != 2 {
		t.Errorf("reordered labels created a second series: value = %v, want 2", got)
	}
}

func TestMetricsSinkFoldsEvents(t *testing.T) {
	r := NewRegistry()
	s := NewMetricsSink(r)
	s.Emit(EventCampaignStart, map[string]any{"experiment": "e"})
	for run := 1; run <= 3; run++ {
		s.Emit(EventRunScheduled, map[string]any{"run": run})
		s.Emit(EventRunMerged, map[string]any{"run": run, "status": "ok"})
	}
	s.Emit(EventRunMerged, map[string]any{"run": 4, "status": "failed"})
	s.Emit(EventRetryAttempt, map[string]any{"run": 4, "attempt": 1})
	s.Emit(EventChaosInject, map[string]any{"run": 4, "kind": "timeout"})
	s.Emit(EventBreakerTransition, map[string]any{"from": "closed", "to": "open"})
	s.Emit(EventRuleEval, map[string]any{"verdict": "continue", "statistic": 0.4})
	s.Emit(EventFaasInvoke, map[string]any{"worker": "w", "status": "ok"})
	s.Emit(EventCampaignStop, map[string]any{})

	checks := map[string]float64{}
	checks["sharp_campaigns_total"] = r.Counter("sharp_campaigns_total", "").Value()
	if checks["sharp_campaigns_total"] != 1 {
		t.Errorf("campaigns_total = %v", checks["sharp_campaigns_total"])
	}
	if got := r.Counter("sharp_runs_scheduled_total", "").Value(); got != 3 {
		t.Errorf("runs_scheduled_total = %v, want 3", got)
	}
	if got := r.Counter("sharp_runs_merged_total", "", "status", "ok").Value(); got != 3 {
		t.Errorf("runs_merged_total{ok} = %v, want 3", got)
	}
	if got := r.Counter("sharp_runs_merged_total", "", "status", "failed").Value(); got != 1 {
		t.Errorf("runs_merged_total{failed} = %v, want 1", got)
	}
	if got := r.Counter("sharp_chaos_injections_total", "", "kind", "timeout").Value(); got != 1 {
		t.Errorf("chaos_injections_total{timeout} = %v, want 1", got)
	}
	if got := r.Counter("sharp_breaker_transitions_total", "", "to", "open").Value(); got != 1 {
		t.Errorf("breaker_transitions_total{open} = %v, want 1", got)
	}
	if got := r.Gauge("sharp_rule_statistic", "").Value(); got != 0.4 {
		t.Errorf("rule_statistic = %v, want 0.4", got)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	srv, err := ServeMetrics(context.Background(), "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fetch := func() string {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("Content-Type = %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	reg.Counter("sharp_invocations_total", "Invocations.").Inc()
	before := fetch()
	if !strings.Contains(before, "sharp_invocations_total 1") {
		t.Fatalf("first scrape missing counter:\n%s", before)
	}
	// Counters must change across invocations (the acceptance check).
	reg.Counter("sharp_invocations_total", "Invocations.").Inc()
	after := fetch()
	if !strings.Contains(after, "sharp_invocations_total 2") {
		t.Fatalf("second scrape did not advance:\n%s", after)
	}

	// The pprof handlers are mounted too.
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

// TestServeMetricsReleasesPortOnCancel is the regression test for the
// sidecar lifecycle: cancelling the context must shut the server down via
// http.Server.Shutdown and release the port — no listener goroutine may
// outlive the signal that stopped the campaign.
func TestServeMetricsReleasesPortOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := ServeMetrics(ctx, "127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// Serving before cancellation.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	// The shutdown runs in a goroutine watching ctx; poll until the port is
	// rebindable (bounded by the test deadline, typically instant).
	deadline := time.Now().Add(5 * time.Second)
	for {
		lis, err := net.Listen("tcp", addr)
		if err == nil {
			lis.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port %s not released after context cancellation: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close after cancellation is idempotent and must not panic or error.
	if err := srv.Close(); err != nil {
		t.Errorf("Close after cancel: %v", err)
	}
}

// Value returns the current gauge value.
func (g Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}
