package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sharp/internal/backend"
	"sharp/internal/machine"
	"sharp/internal/record"
	"sharp/internal/service"
)

// Input sizes. Every phase repeats units of fixed size for its share of
// the run, so the work per unit is identical at a given seed.
const (
	campaignRuns        = 6000 // fixed-n runs per campaign
	campaignConcurrency = 4
	sweepDays           = 5
	sweepRule           = "ks"
	sweepThreshold      = 0.02
	sweepMaxRuns        = 4000
	sweepWarmPasses     = 2
	serviceCampaigns    = 100                  // campaigns per closed-loop batch
	serviceBatchSize    = 4                    // runs per lease (the service default)
	serviceMaxRunning   = 4                    // campaigns executing at once (the service default)
	serviceBatchTimeout = 30 * time.Second     // a batch takes well under a second
	statusPoll          = 2 * time.Millisecond // client wait between status sweeps
	workerPoll          = time.Millisecond     // worker wait after finding no work
	analysisCampaigns   = 32                   // campaigns in the large log
	analysisRuns        = 7_813                // runs per analysis campaign
	analysisConc        = 4                    // instances, and rows, per run
	resumeRepeats       = 3                    // torn-log repairs per analysis unit
)

// serviceRuns are the fixed-n sizes service campaigns cycle through, the
// same for every seed, so every batch does the same work.
var serviceRuns = []int{50, 100, 150, 200, 250}

// campaignInput is one generated campaign.
type campaignInput struct {
	bench, machine string
	seed           uint64
}

// setup holds everything a run prepares before measuring: generated
// inputs, data directories, the service coordinator and its listener, and
// the analysis logs.
type setup struct {
	dir       string
	campaigns []campaignInput
	specs     []service.CampaignSpec

	coord  *service.Coordinator
	server *http.Server
	served chan error
	url    string

	logA, logB     string
	rowsA, rowsB   int
	bytesA, bytesB int64
	// reportExperiments name the log A campaigns the reports render, one
	// per benchmark; compareExperiment is the log B counterpart of the
	// first.
	reportExperiments []string
	compareExperiment string

	// digests maps an output's identity to the SHA-256 of its first
	// occurrence; later occurrences of the same output must match it.
	digests map[string][32]byte
}

// digest records data under key and reports whether it matches every
// earlier output recorded under key.
func (st *setup) digest(key string, data []byte) bool {
	sum := sha256.Sum256(data)
	if prev, ok := st.digests[key]; ok {
		return prev == sum
	}
	st.digests[key] = sum
	return true
}

func newSetup(ctx context.Context, cfg config, dir string) (st *setup, err error) {
	st = &setup{dir: dir, digests: map[string][32]byte{}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < 16; i++ {
		s := mix(cfg.seed, fmt.Sprintf("campaign%d", i))
		st.campaigns = append(st.campaigns, campaignInput{
			bench:   cfg.benches[i%len(cfg.benches)],
			machine: machines[s%uint64(len(machines))],
			seed:    s,
		})
	}
	for i := 0; i < 16*serviceCampaigns; i++ {
		s := mix(cfg.seed, fmt.Sprintf("service%d", i))
		st.specs = append(st.specs, service.CampaignSpec{
			Tenant:      []string{"acme", "globex"}[i%2],
			Name:        fmt.Sprintf("svc%04d", i),
			Workload:    cfg.benches[i%len(cfg.benches)],
			Machine:     machines[(s>>8)%uint64(len(machines))],
			Rule:        "fixed",
			Threshold:   float64(serviceRuns[i%len(serviceRuns)]),
			Seed:        s,
			Day:         1 + int((s>>16)%3),
			Concurrency: 1,
			// Dispatch a lease's worth of runs at once; with one run
			// queued at a time every lease would carry a single run.
			Parallel: serviceBatchSize,
		})
	}
	if err := st.startService(filepath.Join(dir, "service")); err != nil {
		return nil, err
	}
	if err := st.buildLogs(ctx, cfg); err != nil {
		return nil, err
	}
	return st, nil
}

// newCoordinator opens a coordinator on a fresh data directory with the
// benchmark's frozen row clock.
func newCoordinator(dir string, tracer *eventTracer) (*service.Coordinator, error) {
	cfg := service.Config{
		DataDir:    dir,
		Clock:      frozenClock,
		BatchSize:  serviceBatchSize,
		MaxRunning: serviceMaxRunning,
	}
	if tracer != nil {
		cfg.Tracer = tracer
	}
	return service.New(cfg)
}

// startService starts the coordinator behind service.Handler on a loopback
// listener.
func (st *setup) startService(dir string) error {
	c, err := newCoordinator(dir, nil)
	if err != nil {
		return err
	}
	st.coord = c
	url, srv, served, err := serve(c)
	if err != nil {
		return err
	}
	st.url, st.server, st.served = url, srv, served
	return nil
}

// serve exposes c over HTTP on a loopback port.
func serve(c *service.Coordinator) (string, *http.Server, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: service.Handler(c)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv, served, nil
}

// shutdown stops an HTTP server and waits for its Serve goroutine.
func shutdown(srv *http.Server, served chan error) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	<-served
}

// buildLogs writes the analysis inputs. Log A is a combined log of
// analysisCampaigns campaigns on machine1 (the workload's benchmarks over
// successive days), like a sweep's tidy log; log B holds the first of
// those campaigns measured on machine3. Rows carry the launcher's tidy-data
// shape and the Sim backend's draws, one binary block per run.
func (st *setup) buildLogs(ctx context.Context, cfg config) error {
	st.logA = filepath.Join(st.dir, "large.sharpb")
	st.logB = filepath.Join(st.dir, "other.sharpb")
	var camps []logCampaign
	for i := 0; i < analysisCampaigns; i++ {
		camps = append(camps, logCampaign{bench: cfg.benches[i%len(cfg.benches)], day: 1 + i/len(cfg.benches)})
	}
	var err error
	if st.rowsA, st.bytesA, err = writeLog(ctx, st.logA, "machine1", mix(cfg.seed, "logA"), camps); err != nil {
		return err
	}
	st.rowsB, st.bytesB, err = writeLog(ctx, st.logB, "machine3", mix(cfg.seed, "logB"), camps[:1])
	for _, c := range camps[:len(cfg.benches)] {
		st.reportExperiments = append(st.reportExperiments, c.name("machine1"))
	}
	st.compareExperiment = camps[0].name("machine3")
	return err
}

// logCampaign is one campaign of an analysis log.
type logCampaign struct {
	bench string
	day   int
}

func (c logCampaign) name(machName string) string {
	return fmt.Sprintf("%s@%s/day%d", c.bench, machName, c.day)
}

// writeLog writes analysisRuns runs at analysisConc instances of each
// campaign on the named machine to a binary log, returning its row count
// and size.
func writeLog(ctx context.Context, path, machName string, seed uint64, camps []logCampaign) (int, int64, error) {
	m, err := machine.ByName(machName)
	if err != nil {
		return 0, 0, err
	}
	sim := backend.NewSim(m, seed)
	w, err := record.CreateDurable(path, record.Options{FlushEvery: analysisConc})
	if err != nil {
		return 0, 0, err
	}
	for _, c := range camps {
		for run := 1; run <= analysisRuns; run++ {
			invs, err := sim.Invoke(ctx, backend.Request{Workload: c.bench, Concurrency: analysisConc, Run: run, Day: c.day})
			if err != nil {
				w.Close()
				return 0, 0, err
			}
			for _, inv := range invs {
				for _, metricName := range sortedKeys(inv.Metrics) {
					err := w.Write(record.Row{
						Timestamp: frozen, Experiment: c.name(machName), Workload: c.bench,
						Backend: sim.Name(), Machine: inv.Worker, Day: c.day,
						Run: run, Instance: inv.Instance,
						Metric: metricName, Value: inv.Metrics[metricName], Unit: "seconds",
						Status: record.StatusOK, Attempt: 1,
					})
					if err != nil {
						w.Close()
						return 0, 0, err
					}
				}
			}
		}
	}
	rows := w.Rows()
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return rows, fi.Size(), nil
}

// sizes describes every phase's input sizes for the environment block.
func (st *setup) sizes(cfg config) []string {
	return []string{
		fmt.Sprintf("campaign: %d runs x concurrency %d per campaign, Parallel 1 and nproc", campaignRuns, campaignConcurrency),
		fmt.Sprintf("sweep: %d workloads x %d machines x %d days, rule %s %g, max %d runs per cell",
			len(cfg.benches), len(machines), sweepDays, sweepRule, sweepThreshold, sweepMaxRuns),
		fmt.Sprintf("service: batches of %d fixed campaigns of %v runs in turn, %d in flight, 2 tenants",
			serviceCampaigns, serviceRuns, serviceMaxRunning),
		fmt.Sprintf("analysis: log A %d campaigns, %d rows, %d bytes; log B %d rows, %d bytes; %d reports and 1 comparison on %d samples each",
			analysisCampaigns, st.rowsA, st.bytesA, st.rowsB, st.bytesB, len(st.reportExperiments), analysisRuns*analysisConc),
	}
}

// close stops the service and removes the setup's files.
func (st *setup) close() {
	shutdown(st.server, st.served)
	st.server = nil
	if st.coord != nil {
		if err := st.coord.Close(); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "perfbench: closing coordinator: %v\n", err)
		}
		st.coord = nil
	}
	os.RemoveAll(st.dir)
}
