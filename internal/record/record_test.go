package record

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sharp/internal/sysinfo"
)

func sampleRows(n int) []Row {
	rows := make([]Row, n)
	base := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	for i := range rows {
		rows[i] = Row{
			Timestamp:  base.Add(time.Duration(i) * time.Second),
			Experiment: "fig6", Workload: "bfs-CUDA", Backend: "sim",
			Machine: "machine3", Day: 1 + i%5, Run: i + 1, Instance: 1,
			Metric: "exec_time", Value: 1.5 + float64(i)/100, Unit: "seconds",
		}
	}
	return rows
}

// readCSV reads the rows of a CSV log held in memory through the scanner
// behind every CSV read surface.
func readCSV(r io.Reader) ([]Row, error) {
	var rows []Row
	_, err := scanCSV(r, -1, func(row Row) error { rows = append(rows, row); return nil })
	return rows, err
}

func TestCSVRoundTrip(t *testing.T) {
	rows := sampleRows(25)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows: got %d want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], rows[i])
		}
	}
}

func TestEmptyLogHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "timestamp,experiment") {
		t.Fatalf("no header in empty log: %q", buf.String())
	}
	rows, err := readCSV(&buf)
	if err != nil || len(rows) != 0 {
		t.Fatalf("read empty: %v, %v", rows, err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := readCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Error("bad header accepted")
	}
	bad := "timestamp,experiment,workload,backend,machine,day,run,instance,metric,value,unit\n" +
		"not-a-time,e,w,b,m,1,1,1,x,1.0,s\n"
	if _, err := readCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad timestamp accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.csv")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := sampleRows(10)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 10 {
		t.Fatalf("Rows() = %d", w.Rows())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || len(got) != 10 {
		t.Fatalf("read file: %d rows, %v", len(got), err)
	}
}

func TestSelectAndValues(t *testing.T) {
	rows := sampleRows(20)
	day2 := Select(rows, Filter{Day: 2, Metric: "exec_time"})
	for _, r := range day2 {
		if r.Day != 2 {
			t.Fatalf("filter leaked day %d", r.Day)
		}
	}
	if len(day2) != 4 {
		t.Fatalf("day2 rows = %d, want 4", len(day2))
	}
	vals := Values(day2)
	if len(vals) != len(day2) {
		t.Fatal("values length mismatch")
	}
	if none := Select(rows, Filter{Workload: "nope"}); len(none) != 0 {
		t.Fatal("filter matched nonexistent workload")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	sut := sysinfo.SUT{
		Hostname: "machine3", OS: "linux", Kernel: "Linux 5.15.0-116-generic",
		Arch: "amd64", CPUModel: "Intel(R) Xeon(R) Platinum 8468V", CPUCores: 96,
		MemoryMB: 1048576, GPUModel: "Nvidia H100 80GB", GoVersion: "go1.22",
		Simulated: true,
	}
	m := NewMetadata("fig6", sut)
	m.Set("seed", 42).Set("rule", "ks").Set("threshold", 0.1).Set("workloads", "bfs,srad")
	m.Notes = "Stopping-rule comparison on Machine 3."

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetadata(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "fig6" {
		t.Errorf("experiment = %q", got.Experiment)
	}
	if got.Version != Version {
		t.Errorf("version = %q", got.Version)
	}
	for k, v := range m.Params {
		if got.Params[k] != v {
			t.Errorf("param %s = %q, want %q", k, got.Params[k], v)
		}
	}
	if got.SUT != sut {
		t.Errorf("SUT = %+v\nwant %+v", got.SUT, sut)
	}
	if got.Notes != m.Notes {
		t.Errorf("notes = %q", got.Notes)
	}
}

func TestMetadataFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.md")
	m := NewMetadata("quickstart", sysinfo.Collect())
	m.Set("seed", 1)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetadataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "quickstart" || got.Get("seed") != "1" {
		t.Errorf("round trip lost data: %+v", got)
	}
}

func TestParseMetadataRejectsNonRecord(t *testing.T) {
	if _, err := ParseMetadata(strings.NewReader("# some other file\n")); err == nil {
		t.Error("non-record accepted")
	}
}

func TestMetadataIsReadableMarkdown(t *testing.T) {
	m := NewMetadata("fig4", sysinfo.SUT{Hostname: "m1"})
	var buf bytes.Buffer
	m.WriteTo(&buf)
	out := buf.String()
	for _, want := range []string{"## Parameters", "## System Under Test", "## Data fields", "| timestamp |"} {
		if !strings.Contains(out, want) {
			t.Errorf("metadata missing %q", want)
		}
	}
}

func TestSysinfoCollect(t *testing.T) {
	s := sysinfo.Collect()
	if s.CPUCores < 1 {
		t.Error("no cores detected")
	}
	if s.GoVersion == "" {
		t.Error("no Go version")
	}
	if s.String() == "" {
		t.Error("empty description")
	}
	round := sysinfo.FromFields(fieldsToMap(s.Fields()))
	if round != s {
		t.Errorf("sysinfo fields round trip: %+v != %+v", round, s)
	}
}

func fieldsToMap(fields [][2]string) map[string]string {
	m := map[string]string{}
	for _, kv := range fields {
		m[kv[0]] = kv[1]
	}
	return m
}

// mockSUT builds a deterministic SUT for fuzz seeds.
func mockSUT() sysinfo.SUT {
	return sysinfo.SUT{
		Hostname: "m", OS: "linux", Kernel: "k", Arch: "amd64",
		CPUModel: "cpu", CPUCores: 4, MemoryMB: 8192, GoVersion: "go1.22",
	}
}
