// Package gui implements SHARP's web-based graphical user interface: an
// alternative to driving the launcher and reporter from the command line,
// aimed at the rapid-experimentation stage of the evaluation lifecycle
// (paper §IV, Fig. 3).
//
// Pages:
//
//	/                     dashboard: suite, machines, rules, run form
//	/run                  run an experiment, render its report
//	/compare              the comparison interface of Fig. 3
//	/experiments          list the paper's tables/figures
//	/experiments/{id}     regenerate one and render it
package gui

import (
	"context"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"time"

	"sharp/internal/core"
	"sharp/internal/experiments"
	"sharp/internal/machine"
	"sharp/internal/report"
	"sharp/internal/rodinia"
	"sharp/internal/stopping"
)

// Server is the GUI's HTTP handler set.
type Server struct {
	// MaxRuns caps experiment sizes requested through the web form.
	MaxRuns int
	// Timeout bounds one experiment triggered from the GUI.
	Timeout time.Duration
	mux     *http.ServeMux
}

// New returns a GUI server with sane bounds.
func New() *Server {
	s := &Server{MaxRuns: 2000, Timeout: 2 * time.Minute, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /run", s.handleRun)
	s.mux.HandleFunc("GET /compare", s.handleCompare)
	s.mux.HandleFunc("GET /experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>SHARP</title>
<style>
body { font-family: sans-serif; max-width: 60rem; margin: 2rem auto; padding: 0 1rem; }
table { border-collapse: collapse; } th, td { border: 1px solid #999; padding: .25rem .6rem; }
th { background: #eee; } form { margin: 1rem 0; padding: 1rem; border: 1px solid #ccc; }
label { display: inline-block; min-width: 8rem; } input, select { margin: .2rem 0; }
</style></head><body>
<h1>SHARP — distribution-based performance evaluation</h1>

<h2>Run an experiment</h2>
<form action="/run" method="get">
  <label>Workload</label>
  <select name="workload">{{range .Benchmarks}}<option>{{.Name}}</option>{{end}}</select><br>
  <label>Machine</label>
  <select name="machine">{{range .Machines}}<option>{{.Name}}</option>{{end}}</select><br>
  <label>Stopping rule</label>
  <select name="rule">{{range .Rules}}<option>{{.}}</option>{{end}}</select><br>
  <label>Threshold</label> <input name="threshold" value="0" size="6"> (0 = rule default)<br>
  <label>Max runs</label> <input name="max" value="1000" size="6"><br>
  <label>Seed</label> <input name="seed" value="42" size="8"><br>
  <button type="submit">Run</button>
</form>

<h2>Compare machines (Fig. 3 interface)</h2>
<form action="/compare" method="get">
  <label>Workload</label>
  <select name="workload">{{range .Benchmarks}}<option>{{.Name}}</option>{{end}}</select><br>
  <label>Machine A</label>
  <select name="a">{{range .Machines}}<option>{{.Name}}</option>{{end}}</select><br>
  <label>Machine B</label>
  <select name="b">{{range .Machines}}<option value="{{.Name}}" {{if eq .Name "machine3"}}selected{{end}}>{{.Name}}</option>{{end}}</select><br>
  <label>Runs</label> <input name="runs" value="500" size="6"><br>
  <label>Seed</label> <input name="seed" value="42" size="8"><br>
  <button type="submit">Compare</button>
</form>

<p><a href="/experiments">Paper experiments (tables &amp; figures)</a></p>

<h2>Benchmark suite (Table II)</h2>
<table><tr><th>Benchmark</th><th>Class</th><th>Parameters</th></tr>
{{range .Benchmarks}}<tr><td>{{.Name}}</td><td>{{if .CUDA}}CUDA{{else}}CPU{{end}}</td><td>{{.Params}}</td></tr>{{end}}
</table>

<h2>Testbed (Table III, simulated)</h2>
<table><tr><th>Machine</th><th>CPU</th><th>Cores</th><th>RAM</th><th>GPU</th></tr>
{{range .Machines}}<tr><td>{{.Name}}</td><td>{{.CPUModel}}</td><td>{{.Cores}}</td><td>{{.MemoryGB}} GB</td><td>{{if .GPU}}{{.GPU.Model}}{{else}}-{{end}}</td></tr>{{end}}
</table>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	data := struct {
		Benchmarks []rodinia.Benchmark
		Machines   []*machine.Machine
		Rules      []string
	}{rodinia.Suite(), machine.Testbed(), stopping.Names()}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// runParams extracts and validates common experiment parameters.
func (s *Server) runParams(r *http.Request) (workload string, seed uint64, maxRuns int, err error) {
	workload = r.FormValue("workload")
	if workload == "" {
		return "", 0, 0, fmt.Errorf("missing workload")
	}
	if _, err := rodinia.ByName(workload); err != nil {
		return "", 0, 0, err
	}
	seed, _ = strconv.ParseUint(r.FormValue("seed"), 10, 64)
	if seed == 0 {
		seed = 42
	}
	maxRuns, _ = strconv.Atoi(r.FormValue("max"))
	if maxRuns <= 0 {
		maxRuns = 1000
	}
	if maxRuns > s.MaxRuns {
		maxRuns = s.MaxRuns
	}
	return workload, seed, maxRuns, nil
}

// simSpec is the campaign the GUI's forms run: workload on a simulated
// machine, day 1, under rule.
func simSpec(workload, machName string, seed uint64, rule stopping.Spec) core.Spec {
	return core.Spec{
		Name:     fmt.Sprintf("%s@%s", workload, machName),
		Workload: workload,
		Backend:  core.BackendSpec{Kind: "sim", Machine: machName, Seed: seed},
		Rule:     rule,
		Day:      1,
		Seed:     seed,
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	workload, seed, maxRuns, err := s.runParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ruleName := r.FormValue("rule")
	if ruleName == "" {
		ruleName = "meta"
	}
	threshold, _ := strconv.ParseFloat(r.FormValue("threshold"), 64)
	e, err := simSpec(workload, r.FormValue("machine"), seed, stopping.Spec{
		Kind: ruleName, Threshold: threshold, Bounds: stopping.Bounds{MaxSamples: maxRuns},
	}).Experiment(nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.Timeout)
	defer cancel()
	res, err := core.NewLauncher().Run(ctx, e)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	md := report.Result(res, report.Options{})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, report.ToHTML(res.Experiment.Name, md+backLink))
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	workload, seed, _, err := s.runParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	runs, _ := strconv.Atoi(r.FormValue("runs"))
	if runs <= 0 {
		runs = 500
	}
	if runs > s.MaxRuns {
		runs = s.MaxRuns
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.Timeout)
	defer cancel()
	launcher := core.NewLauncher()
	measure := func(machName string) (*core.Result, error) {
		e, err := simSpec(workload, machName, seed,
			stopping.Spec{Kind: "fixed", Threshold: float64(runs)}).Experiment(nil)
		if err != nil {
			return nil, err
		}
		return launcher.Run(ctx, e)
	}
	ra, err := measure(r.FormValue("a"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rb, err := measure(r.FormValue("b"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cmp, err := core.CompareResults(ra, rb)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	md := report.Comparison(cmp, ra.Samples, rb.Samples, report.Options{})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, report.ToHTML("Comparison: "+workload, md+backLink))
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html><html><head><title>Experiments</title></head><body>")
	fmt.Fprint(w, "<h1>Paper experiments</h1><ul>")
	for _, id := range experiments.IDs() {
		fmt.Fprintf(w, `<li><a href="/experiments/%s">%s</a></li>`, id, id)
	}
	fmt.Fprint(w, `</ul><p><a href="/">back</a></p></body></html>`)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	seed, _ := strconv.ParseUint(r.FormValue("seed"), 10, 64)
	if seed == 0 {
		seed = 2024
	}
	rep, err := experiments.Run(id, seed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, report.ToHTML(id, rep.Render()+backLink))
}

const backLink = "\n\n[back](/)\n"
