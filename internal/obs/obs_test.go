package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// fixedNow is the deterministic event clock used by the tests.
func fixedNow() time.Time { return time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC) }

func TestJSONLEmitsOneEventPerLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Now = fixedNow
	tr.Emit(EventCampaignStart, map[string]any{"experiment": "e1", "seed": uint64(7)})
	tr.Emit(EventRunMerged, map[string]any{"run": 1, "status": "ok", "value": 0.25})
	tr.Emit(EventCampaignStop, nil)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i+1, err, line)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("line %d: seq = %d, want %d", i+1, ev.Seq, i+1)
		}
		if !ev.Time.Equal(fixedNow()) {
			t.Errorf("line %d: time = %v, want fixed clock", i+1, ev.Time)
		}
	}
	var first Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != EventCampaignStart || first.Fields["experiment"] != "e1" {
		t.Errorf("first event = %+v", first)
	}
}

func TestJSONLDeterministicSerialization(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		tr := NewJSONL(&buf)
		tr.Now = fixedNow
		tr.Emit(EventRuleEval, map[string]any{
			"rule": "ks-0.1", "n": 50, "statistic": 0.08, "threshold": 0.1, "verdict": "stop",
		})
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same event serialized differently:\n%s\n%s", a, b)
	}
	// encoding/json sorts map keys: the field order must be lexicographic.
	if !strings.Contains(a, `"n":50,"rule":"ks-0.1","statistic":0.08`) {
		t.Errorf("fields not in sorted key order: %s", a)
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ fail bool }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.fail {
		return 0, errors.New("sink gone")
	}
	return len(p), nil
}

func TestJSONLStickyErrorNeverPanics(t *testing.T) {
	w := &errWriter{}
	tr := NewJSONL(w)
	tr.Now = fixedNow
	tr.Emit("a", nil)
	w.fail = true
	tr.Emit("b", nil)
	tr.Emit("c", nil) // must be a no-op, not a second write attempt
	if tr.Err() == nil {
		t.Fatal("want sticky write error")
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close must report the write error")
	}
}

func TestMultiFansOutAndSkipsNil(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	m := Multi(nil, a, Nop, b)
	m.Emit("x", map[string]any{"k": 1})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("fan-out missed a sink: a=%d b=%d", len(a.Events()), len(b.Events()))
	}
	if Multi() != Nop {
		t.Error("empty Multi should collapse to Nop")
	}
	if Multi(a) != Tracer(a) {
		t.Error("single-sink Multi should collapse to the sink")
	}
}

func TestEmitToleratesNil(t *testing.T) {
	Emit(nil, "x", nil) // must not panic
	if err := Close(nil); err != nil {
		t.Fatalf("Close(nil) = %v", err)
	}
}

func TestCollectorByType(t *testing.T) {
	c := NewCollector()
	c.Emit("a", nil)
	c.Emit("b", map[string]any{"v": 1})
	c.Emit("a", nil)
	if got := len(c.ByType("a")); got != 2 {
		t.Errorf("ByType(a) = %d events, want 2", got)
	}
	// The collector must copy fields: mutating the producer's map later
	// must not alter the recorded event.
	fields := map[string]any{"k": "before"}
	c.Emit("c", fields)
	fields["k"] = "after"
	if got := c.ByType("c")[0].Fields["k"]; got != "before" {
		t.Errorf("collector shared the producer's map: k=%v", got)
	}
}

func TestProgressRendersAndFinishes(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.Now = fixedNow
	p.MinInterval = -1 // repaint on every event
	p.Emit(EventCampaignStart, map[string]any{"experiment": "exp", "rule": "ks-0.1"})
	p.Emit(EventRunMerged, map[string]any{"run": 1, "status": "ok"})
	p.Emit(EventRetryAttempt, map[string]any{"run": 2})
	p.Emit(EventRunMerged, map[string]any{"run": 2, "status": "failed"})
	p.Emit(EventRuleEval, map[string]any{"statistic": 0.5, "verdict": "continue"})
	p.Emit(EventCampaignStop, map[string]any{"stop_reason": "done testing"})
	out := buf.String()
	for _, want := range []string{"exp:", "runs=2", "failures=1", "retries=1", "ks-0.1=0.5", "done (done testing)"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}
