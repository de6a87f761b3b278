// Package metrics implements SHARP's configurable metric collectors
// (§IV-d): "Adding more metrics and parameters ... is as simple as adding a
// YAML file that defines how to collect new metrics or factors from the
// command line, e.g., using '/usr/bin/time -v' to collect the maximum
// resident size of the program."
//
// A Collector optionally wraps the measured command with a prefix (such as
// /usr/bin/time -v) and extracts metric values from the combined program
// output with named regular expressions. Collectors are defined in YAML or
// JSON documents loaded through package config, and two built-ins cover the
// paper's examples: GNU time -v and perf-stat style counters.
package metrics

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"sharp/internal/config"
)

// Pattern extracts one metric from tool output.
type Pattern struct {
	// Metric is the metric name the value is reported under.
	Metric string
	// Regex must contain exactly one capturing group matching the value.
	// Values may contain thousands separators (commas), which are removed
	// before parsing, and h:mm:ss / m:ss.cc time forms, which are converted
	// to seconds.
	Regex string
	// Scale multiplies the parsed value (e.g. 1024 for kB -> bytes);
	// 0 means 1.
	Scale float64

	compiled *regexp.Regexp
}

// Collector turns raw command output into metrics.
type Collector struct {
	// Name identifies the collector ("time-v", "perf-stat", ...).
	Name string
	// Wrap is the command prefix placed before the measured binary, e.g.
	// ["/usr/bin/time", "-v"]. Empty means the collector only parses.
	Wrap []string
	// Patterns are the extraction rules.
	Patterns []Pattern
}

// Compile validates and compiles all patterns. It must be called (directly
// or via Load) before Parse.
func (c *Collector) Compile() error {
	if c.Name == "" {
		return errors.New("metrics: collector needs a name")
	}
	if len(c.Patterns) == 0 {
		return fmt.Errorf("metrics: collector %q has no patterns", c.Name)
	}
	for i := range c.Patterns {
		p := &c.Patterns[i]
		if p.Metric == "" {
			return fmt.Errorf("metrics: collector %q: pattern %d has no metric name", c.Name, i)
		}
		re, err := regexp.Compile(p.Regex)
		if err != nil {
			return fmt.Errorf("metrics: collector %q: %w", c.Name, err)
		}
		if re.NumSubexp() != 1 {
			return fmt.Errorf("metrics: collector %q: pattern %q needs exactly one capture group", c.Name, p.Regex)
		}
		p.compiled = re
	}
	return nil
}

// Parse scans output and returns every matched metric. The first match per
// pattern wins.
func (c *Collector) Parse(output string) map[string]float64 {
	out := map[string]float64{}
	for _, p := range c.Patterns {
		if p.compiled == nil {
			continue // not compiled: skip rather than panic
		}
		m := p.compiled.FindStringSubmatch(output)
		if m == nil {
			continue
		}
		v, err := parseValue(m[1])
		if err != nil {
			continue
		}
		scale := p.Scale
		if scale == 0 {
			scale = 1
		}
		out[p.Metric] = v * scale
	}
	return out
}

// parseValue handles plain floats, comma-grouped integers, percentages, and
// clock forms (h:mm:ss or m:ss.cc) which are converted to seconds.
func parseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.TrimSuffix(s, "%"))
	s = strings.ReplaceAll(s, ",", "")
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		total := 0.0
		for _, part := range parts {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return 0, err
			}
			total = total*60 + v
		}
		return total, nil
	}
	return strconv.ParseFloat(s, 64)
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

// TimeVerbose returns the built-in GNU `time -v` collector, covering the
// paper's max-resident-size example plus CPU times and page faults.
func TimeVerbose() Collector {
	c := Collector{
		Name: "time-v",
		Wrap: []string{"/usr/bin/time", "-v"},
		Patterns: []Pattern{
			{Metric: "max_rss_bytes", Regex: `Maximum resident set size \(kbytes\): ([0-9,]+)`, Scale: 1024},
			{Metric: "user_time_seconds", Regex: `User time \(seconds\): ([0-9.]+)`},
			{Metric: "sys_time_seconds", Regex: `System time \(seconds\): ([0-9.]+)`},
			{Metric: "wall_time_seconds", Regex: `Elapsed \(wall clock\) time.*: ([0-9:.]+)`},
			{Metric: "major_page_faults", Regex: `Major \(requiring I/O\) page faults: ([0-9,]+)`},
			{Metric: "minor_page_faults", Regex: `Minor \(reclaiming a frame\) page faults: ([0-9,]+)`},
			{Metric: "voluntary_ctx_switches", Regex: `Voluntary context switches: ([0-9,]+)`},
			{Metric: "cpu_percent", Regex: `Percent of CPU this job got: ([0-9]+)%`},
		},
	}
	if err := c.Compile(); err != nil {
		panic(err) // built-in patterns are tested; unreachable
	}
	return c
}

// PerfStat returns the built-in `perf stat` collector for the hardware
// counters the paper mentions as an example extension.
func PerfStat() Collector {
	c := Collector{
		Name: "perf-stat",
		Wrap: []string{"perf", "stat"},
		Patterns: []Pattern{
			{Metric: "instructions", Regex: `([0-9,]+)\s+instructions`},
			{Metric: "cycles", Regex: `([0-9,]+)\s+cycles`},
			{Metric: "cache_misses", Regex: `([0-9,]+)\s+cache-misses`},
			{Metric: "branch_misses", Regex: `([0-9,]+)\s+branch-misses`},
			{Metric: "task_clock_ms", Regex: `([0-9,.]+)\s+msec task-clock`},
		},
	}
	if err := c.Compile(); err != nil {
		panic(err)
	}
	return c
}

// Builtins returns all built-in collectors.
func Builtins() []Collector {
	return []Collector{TimeVerbose(), PerfStat()}
}
