package sysinfo

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestCollectBasics(t *testing.T) {
	s := Collect()
	if s.CPUCores < 1 {
		t.Error("no cores")
	}
	if s.OS == "" || s.Arch == "" {
		t.Errorf("OS/Arch empty: %+v", s)
	}
	if !strings.HasPrefix(s.GoVersion, "go") {
		t.Errorf("go version = %q", s.GoVersion)
	}
	if s.Simulated {
		t.Error("host collection marked simulated")
	}
}

func TestFieldsRoundTrip(t *testing.T) {
	s := SUT{
		Hostname: "h", OS: "linux", Kernel: "k", Arch: "amd64",
		CPUModel: "cpu", CPUCores: 8, MemoryMB: 1024,
		GPUModel: "gpu", GoVersion: "go1.22", Simulated: true,
	}
	m := map[string]string{}
	for _, kv := range s.Fields() {
		m[kv[0]] = kv[1]
	}
	if got := FromFields(m); got != s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
}

func TestFromFieldsTolerant(t *testing.T) {
	// Unknown keys ignored; missing keys zero.
	got := FromFields(map[string]string{"hostname": "x", "bogus": "y", "cpu_cores": "not-a-number"})
	if got.Hostname != "x" || got.CPUCores != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestStringFormat(t *testing.T) {
	s := SUT{Hostname: "m", CPUModel: "c", CPUCores: 4, MemoryMB: 2048, OS: "linux", Arch: "amd64"}
	out := s.String()
	if !strings.Contains(out, "no GPU") || !strings.Contains(out, "4 cores") {
		t.Errorf("String = %q", out)
	}
}

func TestEnvironmentSorted(t *testing.T) {
	t.Setenv("SHARP_TEST_B", "2")
	t.Setenv("SHARP_TEST_A", "1")
	env := Environment("SHARP_TEST_B", "SHARP_TEST_A")
	if len(env) != 2 || env[0][0] != "SHARP_TEST_A" || env[1][0] != "SHARP_TEST_B" {
		t.Fatalf("env = %v", env)
	}
	// Defaults path must not panic and yields only existing keys.
	for _, kv := range Environment() {
		if kv[0] == "" {
			t.Error("empty key")
		}
	}
}

func TestFieldsAreComplete(t *testing.T) {
	s := Collect()
	m := map[string]string{}
	for _, kv := range s.Fields() {
		m[kv[0]] = kv[1]
	}
	if got, _ := strconv.Atoi(m["cpu_cores"]); got != s.CPUCores {
		t.Error("cpu_cores field mismatch")
	}
	if m["simulated"] != "false" {
		t.Errorf("simulated = %q", m["simulated"])
	}
}

// Environment captures selected environment variables relevant to
// reproducibility (GOMAXPROCS, locale, scheduler hints). Keys are sorted.
func Environment(keys ...string) [][2]string {
	if len(keys) == 0 {
		keys = []string{"GOMAXPROCS", "GOGC", "LANG", "TZ"}
	}
	sort.Strings(keys)
	var out [][2]string
	for _, k := range keys {
		if v, ok := os.LookupEnv(k); ok {
			out = append(out, [2]string{k, v})
		}
	}
	return out
}
