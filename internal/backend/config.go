package backend

import (
	"fmt"

	"sharp/internal/config"
	"sharp/internal/machine"
	"sharp/internal/metrics"
)

// FromConfig builds a backend from a configuration document node — the
// paper's mechanism for adding backends "simply by adding a JSON or YAML
// configuration file with the required command line invocation" (§IV-a).
//
// Recognized structure:
//
//	backend:
//	  type: process            # process | sim
//	  command: /usr/local/bin/bench
//	  args: [--size, "1024"]
//	  collectors:              # optional, see package metrics
//	    - name: time-v         # bare name selects a built-in collector
//	  # or, for the simulated testbed:
//	  type: sim
//	  machine: machine1
//	  seed: 42
//
// The returned backend is ready to pass to a core.Experiment. FaaS and
// in-process backends are constructed in code (they need URLs or function
// registries), not from config.
func FromConfig(doc *config.Document, path string) (Backend, error) {
	kind := doc.String(path+".type", "")
	switch kind {
	case "process":
		command := doc.String(path+".command", "")
		if command == "" {
			return nil, fmt.Errorf("backend: config %q: process backend needs a command", path)
		}
		p := NewProcess(command, doc.Strings(path+".args")...)
		for i := range doc.List(path + ".collectors") {
			c, err := collectorFromConfig(doc, fmt.Sprintf("%s.collectors.%d", path, i))
			if err != nil {
				return nil, err
			}
			p.Collectors = append(p.Collectors, c)
		}
		return p, nil
	case "sim":
		m, err := machine.ByName(doc.String(path+".machine", "machine1"))
		if err != nil {
			return nil, err
		}
		return NewSim(m, uint64(doc.Int(path+".seed", 42))), nil
	case "":
		return nil, fmt.Errorf("backend: config %q: missing type", path)
	default:
		return nil, fmt.Errorf("backend: config %q: unknown type %q (process | sim)", path, kind)
	}
}

// collectorFromConfig resolves one collector entry: a bare built-in name
// ({name: time-v}) or a full inline definition with patterns.
func collectorFromConfig(doc *config.Document, path string) (metrics.Collector, error) {
	name := doc.String(path+".name", "")
	if len(doc.List(path+".patterns")) == 0 {
		// Built-in by name.
		for _, b := range metrics.Builtins() {
			if b.Name == name {
				return b, nil
			}
		}
		return metrics.Collector{}, fmt.Errorf("backend: unknown built-in collector %q", name)
	}
	c := metrics.Collector{Name: name, Wrap: doc.Strings(path + ".wrap")}
	for j := range doc.List(path + ".patterns") {
		base := fmt.Sprintf("%s.patterns.%d.", path, j)
		c.Patterns = append(c.Patterns, metrics.Pattern{
			Metric: doc.String(base+"metric", ""),
			Regex:  doc.String(base+"regex", ""),
			Scale:  doc.Float(base+"scale", 0),
		})
	}
	if err := c.Compile(); err != nil {
		return metrics.Collector{}, err
	}
	return c, nil
}
