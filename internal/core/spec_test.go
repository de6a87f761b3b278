package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"sharp/internal/backend"
	"sharp/internal/resilience"
	"sharp/internal/stopping"
	"sharp/internal/sysinfo"
)

// runtimeOnly lists the Experiment fields a Spec deliberately does not
// carry, with the reason. Keep it short: every other field must be rebuilt
// from the spec, or Result.Metadata cannot record it.
var runtimeOnly = map[string]string{
	"SUT":             "described at build time: the simulated machine, or the host",
	"Retry.Retryable": "a function; a caller that classifies errors sets it on the built Experiment",
}

// fullSpec sets every Spec field to a non-zero value.
func fullSpec() Spec {
	return Spec{
		Name:     "full",
		Workload: "hotspot",
		Args:     []string{"--size", "64 x"},
		Backend: BackendSpec{Kind: "sim", Machine: "machine1", Seed: 9, Chaos: &backend.ChaosConfig{
			Seed: 3, ErrorRate: 0.1, TimeoutRate: 0.1, LatencyRate: 0.1, LatencySpike: 0.5, PanicRate: 0.1, Stall: time.Millisecond,
		}},
		Rule: stopping.Spec{Kind: "self", Threshold: 0.08,
			Bounds: stopping.Bounds{MinSamples: 20, MaxSamples: 500, CheckEvery: 5}},
		Metric:      "exec_time",
		Concurrency: 2,
		WarmupRuns:  1,
		Cold:        true,
		Day:         2,
		Seed:        7,
		Timeout:     time.Second,
		Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Second,
			Multiplier: 1.5, Jitter: 0.2, Seed: 11},
		FailureBudget: FailureBudget{MaxConsecutive: 4, MaxFraction: 0.25, MinRuns: 6},
		Parallel:      4,
	}
}

// leaves lists the dotted paths of the exported leaf fields of t, looking
// through nested structs (and pointers to them) other than sysinfo.SUT.
func leaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + f.Name
		if f.Anonymous {
			path = strings.TrimSuffix(prefix, ".")
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && ft != reflect.TypeOf(sysinfo.SUT{}) {
			sub := path + "."
			if path == "" {
				sub = ""
			}
			out = append(out, leaves(ft, sub)...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// fieldAt returns the field at a dotted path, allocating nil pointers on
// the way when v is settable.
func fieldAt(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		v = v.FieldByName(name)
	}
	return v
}

// perturb changes the spec field at path to another valid value.
func perturb(s *Spec, path string) {
	f := fieldAt(reflect.ValueOf(s).Elem(), path)
	switch path {
	case "Backend.Machine":
		f.SetString("machine2")
		return
	case "Rule.Kind":
		f.SetString("ks")
		return
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 3)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 3)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.125)
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.ValueOf("z")))
	default:
		panic("perturb: unhandled kind " + f.Kind().String() + " at " + path)
	}
}

// TestSpecCarriesEveryExperimentField is the guard that keeps the metadata
// whole: every exported Experiment field must change when some Spec field
// changes (so the recorded spec rebuilds it), or be listed in runtimeOnly.
// Adding an Experiment field without carrying it in the spec fails here.
func TestSpecCarriesEveryExperimentField(t *testing.T) {
	base := fullSpec()
	e0, err := base.Experiment(nil)
	if err != nil {
		t.Fatal(err)
	}
	expFields := leaves(reflect.TypeOf(Experiment{}), "")
	carried := map[string]bool{}
	for _, path := range leaves(reflect.TypeOf(Spec{}), "") {
		if path == "Backend.Kind" || path == "Retry.Retryable" {
			continue // a live backend's kind; a function the encoding drops
		}
		s := fullSpec()
		perturb(&s, path)
		e1, err := s.Experiment(nil)
		if err != nil {
			t.Fatalf("perturbed %s: %v", path, err)
		}
		changed := false
		for _, f := range expFields {
			a := fieldAt(reflect.ValueOf(&e0).Elem(), f)
			b := fieldAt(reflect.ValueOf(&e1).Elem(), f)
			if a.Kind() == reflect.Func {
				continue // functions compare equal only when nil
			}
			if !reflect.DeepEqual(a.Interface(), b.Interface()) {
				carried[f], changed = true, true
			}
		}
		if !changed {
			t.Errorf("Spec.%s changes no Experiment field", path)
		}
	}
	for _, f := range expFields {
		if _, ok := runtimeOnly[f]; !ok && !carried[f] {
			t.Errorf("Experiment.%s is neither rebuilt from the spec nor listed as runtime-only", f)
		}
	}
	for f := range runtimeOnly {
		if !fieldAt(reflect.ValueOf(&e0).Elem(), f).IsValid() {
			t.Errorf("runtimeOnly names %s, which Experiment no longer has", f)
		}
	}
	// Every field survives the canonical encoding.
	enc, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Errorf("decoded %+v\nwant    %+v", got, base)
	}
}

// stubBackend stands in for a live backend a spec cannot rebuild.
type stubBackend struct{}

func (stubBackend) Name() string { return "stub" }
func (stubBackend) Close() error { return nil }
func (stubBackend) Invoke(context.Context, backend.Request) ([]backend.Invocation, error) {
	return nil, nil
}

// FuzzSpec: decoding arbitrary bytes never panics; for any spec that
// decodes and validates, the canonical encoding is a fixed point and the
// spec builds an Experiment.
func FuzzSpec(f *testing.F) {
	full, err := fullSpec().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"workload":"hotspot","backend":{"kind":"sim","machine":"machine1"},"rule":{"kind":"fixed","threshold":5}}`))
	f.Add([]byte(`{"workload":"w","backend":{"kind":"inprocess"},"rule":{"kind":""},"timeout":-1,"retry":{"jitter":-0}}`))
	f.Add([]byte(`{"workload":"w","backend":{"kind":"sim","machine":"machine9"}}`))
	f.Add([]byte(`{"workload":"w","backend":{"kind":"sim","machine":"machine1","chaos":{"ErrorRate":1e308}}}`))
	f.Add([]byte(`{"WORKLOAD":"w","Backend":{"KIND":"sim","machine":"machine1"},"rule":{"kind":"fixed","threshold":1e300}} `))
	f.Add([]byte(`{"workload":"w","extra":1}`))
	f.Add([]byte(`{} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil || s.Validate() != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("valid spec does not encode: %v", err)
		}
		s2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s does not decode: %v", enc, err)
		}
		if enc2, _ := s2.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
		var live backend.Backend
		if s.Backend.Kind != kindSim {
			live = stubBackend{}
		}
		if _, err := s.Experiment(live); err != nil {
			t.Fatalf("valid spec %s does not build: %v", enc, err)
		}
	})
}
