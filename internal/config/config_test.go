package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func parse(t *testing.T, src string) any {
	t.Helper()
	v, err := ParseYAML([]byte(src))
	if err != nil {
		t.Fatalf("parse error: %v\nsource:\n%s", err, src)
	}
	return v
}

func TestScalars(t *testing.T) {
	v := parse(t, `
name: hotspot
runs: 100
threshold: 0.05
enabled: true
disabled: false
nothing: null
quoted: "a: b # not a comment"
single: 'it''s'
comment: value  # trailing comment
`)
	m := v.(map[string]any)
	want := map[string]any{
		"name": "hotspot", "runs": int64(100), "threshold": 0.05,
		"enabled": true, "disabled": false, "nothing": nil,
		"quoted": "a: b # not a comment", "single": "it's", "comment": "value",
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("got %#v\nwant %#v", m, want)
	}
}

func TestNestedMapping(t *testing.T) {
	v := parse(t, `
launcher:
  backend: local
  timeout: 30
  stopping:
    rule: ks
    threshold: 0.1
`)
	d := NewDocument(v)
	if got := d.String("launcher.backend", ""); got != "local" {
		t.Errorf("backend = %q", got)
	}
	if got := d.Float("launcher.stopping.threshold", 0); got != 0.1 {
		t.Errorf("threshold = %v", got)
	}
	if got := d.Int("launcher.timeout", 0); got != 30 {
		t.Errorf("timeout = %v", got)
	}
}

func TestSequences(t *testing.T) {
	v := parse(t, `
benchmarks:
  - bfs
  - hotspot
  - srad
flow: [1, 2.5, "x", true]
`)
	d := NewDocument(v)
	if got := d.Strings("benchmarks"); !reflect.DeepEqual(got, []string{"bfs", "hotspot", "srad"}) {
		t.Errorf("benchmarks = %v", got)
	}
	flow := d.List("flow")
	want := []any{int64(1), 2.5, "x", true}
	if !reflect.DeepEqual(flow, want) {
		t.Errorf("flow = %#v", flow)
	}
}

func TestSequenceOfMaps(t *testing.T) {
	v := parse(t, `
metrics:
  - name: exec_time
    unit: seconds
    command: "/usr/bin/time -v"
  - name: max_rss
    unit: kb
`)
	d := NewDocument(v)
	if got := d.String("metrics.0.name", ""); got != "exec_time" {
		t.Errorf("metrics.0.name = %q", got)
	}
	if got := d.String("metrics.1.unit", ""); got != "kb" {
		t.Errorf("metrics.1.unit = %q", got)
	}
	if got := d.String("metrics.0.command", ""); got != "/usr/bin/time -v" {
		t.Errorf("command = %q", got)
	}
}

func TestNestedSequenceBlocks(t *testing.T) {
	v := parse(t, `
states:
  - name: run
    actions:
      - functionRef: bench1
      - functionRef: bench2
  - name: done
`)
	d := NewDocument(v)
	if got := d.String("states.0.actions.1.functionRef", ""); got != "bench2" {
		t.Errorf("deep path = %q", got)
	}
	if got := d.String("states.1.name", ""); got != "done" {
		t.Errorf("states.1.name = %q", got)
	}
}

func TestSequenceAtKeyIndent(t *testing.T) {
	// Sequences written at the same indent as the key (common style).
	v := parse(t, `
items:
- a
- b
`)
	d := NewDocument(v)
	if got := d.Strings("items"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("items = %v", got)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"key without colon",
		"\tkey: tab indent",
		"a: 1\na: 2", // duplicate key
		"k:v",        // missing space
	}
	for _, src := range bad {
		if _, err := ParseYAML([]byte(src)); err == nil {
			t.Errorf("no error for %q", src)
		} else if !errors.Is(err, ErrSyntax) {
			t.Errorf("error %v not wrapped in ErrSyntax", err)
		}
	}
}

func TestEmptyAndComments(t *testing.T) {
	v, err := ParseYAML([]byte("# just a comment\n\n"))
	if err != nil || v != nil {
		t.Fatalf("empty doc: %v, %v", v, err)
	}
}

func TestParseJSON(t *testing.T) {
	d, err := Parse([]byte(`{"a": {"b": [1, 2, 3]}}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Float("a.b.2", 0); got != 3 {
		t.Errorf("a.b.2 = %v", got)
	}
}

func TestParseFileDispatch(t *testing.T) {
	dir := t.TempDir()
	yml := filepath.Join(dir, "c.yaml")
	os.WriteFile(yml, []byte("x: 1\n"), 0o644)
	d, err := ParseFile(yml)
	if err != nil {
		t.Fatal(err)
	}
	if d.Int("x", 0) != 1 {
		t.Error("yaml file not parsed")
	}
	js := filepath.Join(dir, "c.json")
	os.WriteFile(js, []byte(`{"x": 2}`), 0o644)
	d, err = ParseFile(js)
	if err != nil {
		t.Fatal(err)
	}
	if d.Int("x", 0) != 2 {
		t.Error("json file not parsed")
	}
}

func TestUnmarshalStruct(t *testing.T) {
	v := parse(t, `
stopping:
  rule: ks
  threshold: 0.1
  max_samples: 1000
`)
	var cfg struct {
		Rule       string  `json:"rule"`
		Threshold  float64 `json:"threshold"`
		MaxSamples int     `json:"max_samples"`
	}
	if err := NewDocument(v).Unmarshal("stopping", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Rule != "ks" || cfg.Threshold != 0.1 || cfg.MaxSamples != 1000 {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestDefaults(t *testing.T) {
	d := NewDocument(map[string]any{"a": int64(1)})
	if d.String("missing", "dflt") != "dflt" {
		t.Error("string default")
	}
	if d.Int("a", 0) != 1 {
		t.Error("int64 coercion")
	}
	if d.Bool("a", true) != true {
		t.Error("mistyped bool should return default")
	}
	if d.Map("a") != nil || d.List("a") != nil {
		t.Error("mistyped container should return nil")
	}
}

// Unmarshal decodes the subtree at path into out (a struct pointer) by
// round-tripping through encoding/json, so `json` struct tags apply.
func (d *Document) Unmarshal(path string, out any) error {
	v, ok := d.Lookup(path)
	if !ok {
		return fmt.Errorf("config: path %q not found", path)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("config: decoding %q: %w", path, err)
	}
	return nil
}
