package record

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sharp/internal/fsx"
	"sharp/internal/sysinfo"
)

// Metadata is the experiment description written alongside each CSV log.
// The file is Markdown — readable by humans — but structured enough that
// ParseMetadata recovers every parameter, which is how SHARP recreates a
// previous experiment from its own records (§IV-d).
type Metadata struct {
	// Experiment is the experiment identifier.
	Experiment string
	// Created is the generation time (UTC).
	Created time.Time
	// Version identifies the SHARP build that produced the record.
	Version string
	// Params holds every launcher/stopping/workload parameter needed to
	// recreate the run (seed, rule, thresholds, workload arguments, ...).
	Params map[string]string
	// SUT describes the system under test.
	SUT sysinfo.SUT
	// Notes is free-form commentary (not machine-interpreted).
	Notes string
}

// Version is the SHARP (Go reproduction) version stamped into records; it
// stands in for the paper's "current git hash of SHARP's own code".
const Version = "sharp-go/1.0.0"

// NewMetadata returns a Metadata with the mandatory fields set.
func NewMetadata(experiment string, sut sysinfo.SUT) *Metadata {
	return &Metadata{
		Experiment: experiment,
		Created:    time.Now().UTC(),
		Version:    Version,
		Params:     map[string]string{},
		SUT:        sut,
	}
}

// Set records a parameter, formatting the value with %v.
func (m *Metadata) Set(key string, value any) *Metadata {
	m.Params[key] = fmt.Sprintf("%v", value)
	return m
}

// Get returns a parameter value ("" if absent).
func (m *Metadata) Get(key string) string { return m.Params[key] }

// WriteTo renders the metadata file as Markdown. Machine-readable entries
// use "- `key`: value" bullets inside well-known sections.
func (m *Metadata) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# SHARP experiment record: %s\n\n", m.Experiment)
	fmt.Fprintf(&b, "This file describes one SHARP experiment. It is both documentation and\n")
	fmt.Fprintf(&b, "input: `sharp recreate <this file>` re-runs the experiment with the same\n")
	fmt.Fprintf(&b, "parameters.\n\n")
	fmt.Fprintf(&b, "## Record\n\n")
	fmt.Fprintf(&b, "- `experiment`: %s\n", m.Experiment)
	fmt.Fprintf(&b, "- `created`: %s\n", m.Created.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "- `version`: %s\n", m.Version)
	fmt.Fprintf(&b, "\n## Parameters\n\n")
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "- `%s`: %s\n", k, m.Params[k])
	}
	fmt.Fprintf(&b, "\n## System Under Test\n\n")
	for _, kv := range m.SUT.Fields() {
		fmt.Fprintf(&b, "- `%s`: %s\n", kv[0], kv[1])
	}
	fmt.Fprintf(&b, "\n## Data fields\n\n")
	fmt.Fprintf(&b, "Each row of the accompanying CSV is one metric observation (tidy data;\n")
	fmt.Fprintf(&b, "concurrent instances get separate rows).\n\n")
	fmt.Fprintf(&b, "| column | description |\n|---|---|\n")
	for _, col := range Header {
		fmt.Fprintf(&b, "| %s | %s |\n", col, FieldDocs[col])
	}
	if m.Notes != "" {
		fmt.Fprintf(&b, "\n## Notes\n\n%s\n", m.Notes)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteFile writes the metadata file at path atomically (temp file +
// rename): an interrupted write leaves the previous metadata intact instead
// of a torn, unparsable record.
func (m *Metadata) WriteFile(path string) error {
	return fsx.WriteTo(path, 0o644, func(w io.Writer) error {
		_, err := m.WriteTo(w)
		return err
	})
}

// Checkpoint parameter keys. A checkpoint line marks a cleanly interrupted
// campaign: checkpoint_run is the last fully recorded run index and
// checkpoint_rows the number of CSV rows belonging to it, so resume can
// trust the log up to exactly that row and continue at the next run.
const (
	ParamCheckpointRun  = "checkpoint_run"
	ParamCheckpointRows = "checkpoint_rows"
)

// SetCheckpoint records the interrupt checkpoint (last completed run and
// its cumulative row count) in the metadata parameters.
func (m *Metadata) SetCheckpoint(run, rows int) {
	m.Set(ParamCheckpointRun, run)
	m.Set(ParamCheckpointRows, rows)
}

// Checkpoint returns the interrupt checkpoint, if one is recorded.
func (m *Metadata) Checkpoint() (run, rows int, ok bool) {
	r, err1 := strconv.Atoi(m.Get(ParamCheckpointRun))
	n, err2 := strconv.Atoi(m.Get(ParamCheckpointRows))
	if err1 != nil || err2 != nil || r < 0 || n < 0 {
		return 0, 0, false
	}
	return r, n, true
}

// ParseMetadata reads a metadata Markdown file back into a Metadata.
// Unrecognized content is ignored; only the structured bullets in the
// Record, Parameters, and System Under Test sections are interpreted.
func ParseMetadata(r io.Reader) (*Metadata, error) {
	m := &Metadata{Params: map[string]string{}}
	sut := map[string]string{}
	section := ""
	sc := bufio.NewScanner(r)
	var notes []string
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		switch {
		case strings.HasPrefix(line, "## "):
			section = strings.TrimSpace(strings.TrimPrefix(line, "## "))
			continue
		case strings.HasPrefix(line, "# SHARP experiment record: "):
			m.Experiment = strings.TrimSpace(strings.TrimPrefix(line, "# SHARP experiment record: "))
			continue
		}
		if section == "Notes" {
			notes = append(notes, line)
			continue
		}
		key, val, ok := parseBullet(line)
		if !ok {
			continue
		}
		switch section {
		case "Record":
			switch key {
			case "experiment":
				m.Experiment = val
			case "created":
				if t, err := time.Parse(time.RFC3339, val); err == nil {
					m.Created = t
				}
			case "version":
				m.Version = val
			}
		case "Parameters":
			m.Params[key] = val
		case "System Under Test":
			sut[key] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	if m.Experiment == "" {
		return nil, fmt.Errorf("record: not a SHARP metadata file (missing experiment header)")
	}
	m.SUT = sysinfo.FromFields(sut)
	m.Notes = strings.TrimSpace(strings.Join(notes, "\n"))
	return m, nil
}

// ParseMetadataFile reads a metadata file from disk.
func ParseMetadataFile(path string) (*Metadata, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseMetadata(f)
}

// parseBullet extracts key/value from a "- `key`: value" line.
func parseBullet(line string) (key, val string, ok bool) {
	s := strings.TrimSpace(line)
	if !strings.HasPrefix(s, "- `") {
		return "", "", false
	}
	s = strings.TrimPrefix(s, "- `")
	end := strings.Index(s, "`")
	if end < 0 {
		return "", "", false
	}
	key = s[:end]
	rest := strings.TrimSpace(s[end+1:])
	if !strings.HasPrefix(rest, ":") {
		return "", "", false
	}
	return key, strings.TrimSpace(rest[1:]), true
}
