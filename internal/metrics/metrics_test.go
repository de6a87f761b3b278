package metrics

import (
	"errors"
	"fmt"
	"testing"

	"sharp/internal/config"
)

const timeVOutput = `	Command being timed: "./bench"
	User time (seconds): 1.52
	System time (seconds): 0.31
	Percent of CPU this job got: 98%
	Elapsed (wall clock) time (h:mm:ss or m:ss): 1:02.45
	Maximum resident set size (kbytes): 124,556
	Major (requiring I/O) page faults: 3
	Minor (reclaiming a frame) page faults: 21,042
	Voluntary context switches: 152
`

func TestTimeVerboseParsing(t *testing.T) {
	c := TimeVerbose()
	m := c.Parse(timeVOutput)
	cases := map[string]float64{
		"max_rss_bytes":          124556 * 1024,
		"user_time_seconds":      1.52,
		"sys_time_seconds":       0.31,
		"wall_time_seconds":      62.45,
		"major_page_faults":      3,
		"minor_page_faults":      21042,
		"voluntary_ctx_switches": 152,
		"cpu_percent":            98,
	}
	for k, want := range cases {
		if got := m[k]; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
}

const perfOutput = `
 Performance counter stats for './bench':

          1,234.56 msec task-clock                #    0.998 CPUs utilized
     4,567,890,123      cycles                    #    3.700 GHz
     9,876,543,210      instructions              #    2.16  insn per cycle
         1,234,567      cache-misses
           987,654      branch-misses
`

func TestPerfStatParsing(t *testing.T) {
	c := PerfStat()
	m := c.Parse(perfOutput)
	if m["cycles"] != 4567890123 {
		t.Errorf("cycles = %v", m["cycles"])
	}
	if m["instructions"] != 9876543210 {
		t.Errorf("instructions = %v", m["instructions"])
	}
	if m["cache_misses"] != 1234567 {
		t.Errorf("cache_misses = %v", m["cache_misses"])
	}
	if m["task_clock_ms"] != 1234.56 {
		t.Errorf("task_clock_ms = %v", m["task_clock_ms"])
	}
}

func TestLoadFromYAML(t *testing.T) {
	src := `
collectors:
  - name: gpu-power
    wrap: [nvidia-smi-wrap]
    patterns:
      - metric: power_watts
        regex: "Power draw: ([0-9.]+) W"
      - metric: mem_used_mb
        regex: "Memory used: ([0-9]+) MiB"
`
	doc, err := config.Parse([]byte(src), ".yaml")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Name != "gpu-power" || len(cs[0].Wrap) != 1 {
		t.Fatalf("collectors = %+v", cs)
	}
	m := cs[0].Parse("Power draw: 213.5 W\nMemory used: 40321 MiB\n")
	if m["power_watts"] != 213.5 || m["mem_used_mb"] != 40321 {
		t.Fatalf("parsed = %v", m)
	}
}

func TestLoadValidation(t *testing.T) {
	bad := []string{
		`{"collectors": []}`,
		`{"collectors": [{"name": "", "patterns": [{"metric": "m", "regex": "(x)"}]}]}`,
		`{"collectors": [{"name": "a", "patterns": []}]}`,
		`{"collectors": [{"name": "a", "patterns": [{"metric": "", "regex": "(x)"}]}]}`,
		`{"collectors": [{"name": "a", "patterns": [{"metric": "m", "regex": "("}]}]}`,
		`{"collectors": [{"name": "a", "patterns": [{"metric": "m", "regex": "nogroup"}]}]}`,
		`{"collectors": [{"name": "a", "patterns": [{"metric": "m", "regex": "(a)(b)"}]}]}`,
	}
	for _, src := range bad {
		doc, err := config.Parse([]byte(src), ".json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(doc); err == nil {
			t.Errorf("no error for %s", src)
		}
	}
}

func TestParseValueForms(t *testing.T) {
	cases := map[string]float64{
		"1.5":     1.5,
		"1,234":   1234,
		"98%":     98,
		"1:02.45": 62.45,
		"1:01:01": 3661,
		"0:00.50": 0.5,
	}
	for in, want := range cases {
		got, err := parseValue(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("%q = %v, want %v", in, got, want)
		}
	}
	if _, err := parseValue("nope"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestUnmatchedPatternsOmitted(t *testing.T) {
	c := TimeVerbose()
	m := c.Parse("unrelated output")
	if len(m) != 0 {
		t.Fatalf("matched on unrelated output: %v", m)
	}
}

func TestBuiltins(t *testing.T) {
	if len(Builtins()) != 2 {
		t.Fatal("builtins changed unexpectedly")
	}
}

// Load reads collector definitions from a parsed configuration document.
// Expected structure (YAML subset):
//
//	collectors:
//	  - name: time-v
//	    wrap: [/usr/bin/time, -v]
//	    patterns:
//	      - metric: max_rss_bytes
//	        regex: "Maximum resident set size .*: ([0-9]+)"
//	        scale: 1024
func Load(doc *config.Document) ([]Collector, error) {
	list := doc.List("collectors")
	if len(list) == 0 {
		return nil, errors.New("metrics: no collectors defined")
	}
	out := make([]Collector, 0, len(list))
	for i := range list {
		cd := config.NewDocument(list[i])
		c := Collector{
			Name: cd.String("name", ""),
			Wrap: cd.Strings("wrap"),
		}
		for j := range cd.List("patterns") {
			base := fmt.Sprintf("patterns.%d.", j)
			c.Patterns = append(c.Patterns, Pattern{
				Metric: cd.String(base+"metric", ""),
				Regex:  cd.String(base+"regex", ""),
				Scale:  cd.Float(base+"scale", 0),
			})
		}
		if err := c.Compile(); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
