package record

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// FuzzParseMetadata checks the metadata Markdown parser never panics and
// that parse(render(parse(x))) is stable for accepted inputs.
func FuzzParseMetadata(f *testing.F) {
	var buf bytes.Buffer
	m := NewMetadata("seedexp", mockSUT())
	m.Set("seed", 42).Set("rule", "ks-0.1")
	m.Notes = "some notes\nwith two lines"
	m.WriteTo(&buf)
	f.Add(buf.String())
	f.Add("# SHARP experiment record: x\n\n## Parameters\n\n- `a`: 1\n")
	f.Add("# SHARP experiment record: \n")
	f.Add("random text\n- `key`: value\n")
	f.Add("# SHARP experiment record: y\n## System Under Test\n- `cpu_cores`: NaN\n")

	f.Fuzz(func(t *testing.T, s string) {
		m1, err := ParseMetadata(strings.NewReader(s))
		if err != nil {
			return
		}
		// Round trip: re-render and re-parse; structured fields must agree.
		var out bytes.Buffer
		if _, err := m1.WriteTo(&out); err != nil {
			t.Fatalf("render failed on accepted input: %v", err)
		}
		m2, err := ParseMetadata(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if m2.Experiment != m1.Experiment {
			t.Fatalf("experiment drifted: %q -> %q", m1.Experiment, m2.Experiment)
		}
		for k, v := range m1.Params {
			if m2.Params[k] != v {
				t.Fatalf("param %q drifted: %q -> %q", k, v, m2.Params[k])
			}
		}
		if m2.SUT != m1.SUT {
			t.Fatalf("SUT drifted: %+v -> %+v", m1.SUT, m2.SUT)
		}
	})
}

// FuzzScanBinary feeds arbitrary block streams to the frame walk and checks
// it against scanReference: the stream (with its run bookkeeping) and the
// slab read must agree with the reference on rows, torn verdict, dataEnd,
// lastRun, runStartRows and error text. The walk must never panic, and
// whatever prefix it accepts must re-walk clean and survive an
// encode/decode round trip.
func FuzzScanBinary(f *testing.F) {
	seed := func(rows []Row) []byte {
		dir := f.TempDir()
		path := dir + "/seed.sharpb"
		if err := writeRowsAtomicBinary(path, rows); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(nil))
	f.Add(seed(sampleRows(5)))
	multi := sampleRows(12)
	multi[3].Status, multi[3].Error = StatusError, "boom"
	f.Add(seed(multi))
	f.Add([]byte(binMagic))
	f.Add([]byte(binMagic + "\x02\x01\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Force the binary path regardless of what the mutator did to the
		// leading bytes: the walk must be total over arbitrary block streams
		// after the magic.
		stream := append([]byte(binMagic), data...)
		ref, want, werr := scanReference(bytes.NewReader(stream), nil, true, nil)
		var rows []Row
		sc, err := streamLog(stream, func(batch []Row) error {
			rows = append(rows, batch...)
			return nil
		})
		rsc, read, rerr := readLog(stream, nil)
		if fmt.Sprint(err) != fmt.Sprint(werr) || fmt.Sprint(rerr) != fmt.Sprint(werr) {
			t.Fatalf("error text differs:\n  stream:    %v\n  read:      %v\n  reference: %v", err, rerr, werr)
		}
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if sc.rows != ref.rows || sc.torn != ref.torn || sc.dataEnd != ref.dataEnd ||
			sc.lastRun != ref.lastRun || sc.runStartRows != ref.runStartRows {
			t.Fatalf("stream verdict %+v differs from reference %+v", sc, ref)
		}
		if rsc.rows != ref.rows || rsc.torn != ref.torn || rsc.dataEnd != ref.dataEnd {
			t.Fatalf("read verdict %+v differs from reference %+v", rsc, ref)
		}
		if !sameRows(rows, want) || !sameRows(read, want) {
			t.Fatalf("decoded rows differ from reference (stream %d, read %d, reference %d)", len(rows), len(read), len(want))
		}
		if sc.rows != len(rows) {
			t.Fatalf("walk says %d rows, decoded %d", sc.rows, len(rows))
		}
		if sc.dataEnd > int64(len(stream)) {
			t.Fatalf("dataEnd %d beyond stream length %d", sc.dataEnd, len(stream))
		}
		// The accepted prefix must re-walk clean (untorn) when cut at
		// dataEnd, with identical bookkeeping.
		var rows2 []Row
		sc2, err := streamLog(stream[:sc.dataEnd], func(batch []Row) error {
			rows2 = append(rows2, batch...)
			return nil
		})
		if err != nil || sc2.torn {
			t.Fatalf("accepted prefix rejected on re-walk: torn=%v err=%v", sc2.torn, err)
		}
		if sc2.rows != sc.rows || sc2.lastRun != sc.lastRun || sc2.runStartRows != sc.runStartRows {
			t.Fatalf("re-walk bookkeeping drifted: %+v vs %+v", sc2, sc)
		}
		if !sameRows(rows, rows2) {
			t.Fatal("rows drifted on re-walk")
		}
		// Decoded rows within int32 field range must re-encode and decode
		// to the same values.
		for i := range rows {
			if err := checkRowRange(rows[i]); err != nil {
				t.Fatalf("walk accepted out-of-range row: %v", err)
			}
		}
	})
}

// sameRows reports whether a and b hold the same rows, comparing values
// bitwise so NaN payloads compare equal to themselves.
func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
		x.Value, y.Value = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// FuzzScanManifest checks the segment-manifest parser is total over
// arbitrary bytes and that accepted manifests re-encode byte-identically and
// re-parse to the same structure. A manifest the parser accepts drives
// segment-file deletion during truncation, so acceptance must imply sane,
// stable bookkeeping.
func FuzzScanManifest(f *testing.F) {
	f.Add(encodeManifest(&segManifest{segRows: 1 << 20}))
	f.Add(encodeManifest(&segManifest{segRows: 64, entries: []segEntry{
		{rows: 10, lastRun: 4, runStart: 8, bytes: 900},
		{rows: 12, lastRun: 9, runStart: 10, bytes: 1100},
	}}))
	f.Add([]byte(segMagic))
	f.Add([]byte(segMagic + "\x00\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		for i, e := range m.entries {
			if e.rows < 0 || e.runStart < 0 || e.bytes < int64(len(binMagic)) {
				t.Fatalf("accepted implausible entry %d: %+v", i, e)
			}
		}
		enc := encodeManifest(m)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted manifest did not re-encode byte-identically (%d vs %d bytes)", len(enc), len(data))
		}
		m2, err := parseManifest(enc)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if m2.segRows != m.segRows || len(m2.entries) != len(m.entries) {
			t.Fatalf("re-parse drifted: %+v vs %+v", m2, m)
		}
	})
}

// FuzzCSVRows checks the tidy-row parser is total over arbitrary CSV bodies.
func FuzzCSVRows(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteAll(sampleRows(3))
	w.Close()
	f.Add(buf.String())
	f.Add("timestamp,experiment,workload,backend,machine,day,run,instance,metric,value,unit\n")
	f.Add("not,a,header\n1,2,3\n")
	f.Fuzz(func(t *testing.T, s string) {
		rows, err := readInto(strings.NewReader(s), nil)
		if err != nil {
			return
		}
		// Accepted rows must re-serialize and re-parse identically.
		var out bytes.Buffer
		w := NewWriter(&out)
		if err := w.WriteAll(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := readInto(bytes.NewReader(out.Bytes()), nil)
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if len(again) != len(rows) {
			t.Fatalf("row count drifted: %d -> %d", len(rows), len(again))
		}
	})
}
