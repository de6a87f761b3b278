package record

import (
	"strings"
	"testing"
	"time"
)

// legacyCSV is a log written before the status/attempt/error columns existed.
const legacyCSV = `timestamp,experiment,workload,backend,machine,day,run,instance,metric,value,unit
2024-01-02T03:04:05Z,exp,hotspot,sim,machine1,1,1,1,exec_time,3.14,seconds
2024-01-02T03:04:06Z,exp,hotspot,sim,machine1,1,2,1,exec_time,3.15,seconds
`

func TestReadLegacyLog(t *testing.T) {
	rows, err := readInto(strings.NewReader(legacyCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Metric != "exec_time" || r.Value != 3.14 || r.Run != 1 {
		t.Fatalf("row = %+v", r)
	}
	// New columns default to zero values for legacy rows.
	if r.Status != "" || r.Attempt != 0 || r.Error != "" {
		t.Fatalf("legacy row grew data: %+v", r)
	}
}

func TestNewColumnsRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	in := Row{
		Timestamp:  time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC),
		Experiment: "exp", Workload: "w", Backend: "sim", Machine: "m1",
		Day: 1, Run: 2, Instance: 0,
		Metric: MetricError, Value: 1, Unit: "",
		Status: StatusError, Attempt: 3, Error: "backend degraded; giving up",
	}
	if err := w.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := readInto(strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := rows[0]
	if out.Status != StatusError || out.Attempt != 3 || out.Error != in.Error {
		t.Fatalf("round trip lost resilience columns: %+v", out)
	}
	if out.Instance != 0 {
		t.Fatalf("whole-run failure instance = %d", out.Instance)
	}
}

func TestFieldDocsCoverHeader(t *testing.T) {
	for _, col := range Header {
		if FieldDocs[col] == "" {
			t.Errorf("column %q undocumented", col)
		}
	}
}
