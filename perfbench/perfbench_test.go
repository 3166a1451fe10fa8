package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/vfs"
)

// testScale shrinks every workload so one iteration takes well under a
// second.
var testScale = Scale{
	LANPageCache: 256 << 10,
	SeqFile:      1 << 20,
	WANPageCache: 128 << 10,
	RTT:          2 * time.Millisecond,
	PMDirs:       2,
	PMFiles:      4,
	PMTx:         8,
	BulkFiles:    2,
	BulkFileSize: 128 << 10,
	BulkRead:     512 << 10,
	SetupReps:    2,
}

// testOptions run one iteration of workload at test scale.
func testOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		duration: time.Millisecond,
		trace:    trace,
		scale:    testScale,
		workDir:  t.TempDir(),
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every workload, untraced and traced, reports every metric that
// BENCHMARK.json names, with its unit, and reads back what it wrote.
func TestEveryWorkloadReportsNamedMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runBenchmark(testOptions(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.report["failures"])
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// flipFS corrupts one byte of every read and every write of the
// server's storage.
type flipFS struct{ vfs.FS }

func (f flipFS) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	n, eof, err := f.FS.Read(h, off, buf)
	if n > 0 {
		buf[n/2] ^= 0x40
	}
	return n, eof, err
}

func (f flipFS) Write(h vfs.Handle, off uint64, data []byte) error {
	if len(data) == 0 {
		return f.FS.Write(h, off, data)
	}
	c := append([]byte(nil), data...)
	c[len(c)/2] ^= 0x40
	return f.FS.Write(h, off, c)
}

// Corrupt storage must show as failed ops, on the read path and on the
// write-back path.
func TestCorruptBackendIsReported(t *testing.T) {
	for _, w := range []string{"lan-seqread", "wan-bulk"} {
		o := testOptions(t, w, false)
		o.wrapBackend = func(fs vfs.FS) vfs.FS { return flipFS{fs} }
		res, err := runBenchmark(o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Fatalf("%s: corrupt storage went unnoticed: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if rate := res.report["error_rate"].(float64); rate <= 0 {
			t.Errorf("%s: error_rate = %v, want > 0", w, rate)
		}
	}
}

// The layers' self times plus the benchmark's own time may sum to at
// most residualHigh over the workload's wall-clock time and at most
// residualLow under it. Background work (readahead, write-back) that
// runs with no caller's span open is counted in the layer that does it
// and in no caller's, so the sum may exceed the wall time by the share
// of it that overlaps the foreground; at test scale that was up to 5%.
// Nothing should make it fall short beyond clock granularity.
const (
	residualHigh = 0.10
	residualLow  = 0.01
)

// The traced run attributes each iteration's wall time to the layers:
// each layer's self time is measured on its own terms, and they sum,
// with the benchmark's own time between ops, to the workload's wall
// time. Every tapped layer sees calls, and spans carry their op and
// parent.
func TestSelfTimesSumToWallTime(t *testing.T) {
	for _, w := range []string{"lan-seqread", "wan-postmark", "wan-bulk"} {
		o := testOptions(t, w, true)
		o.duration = 300 * time.Millisecond
		wl := workloads[w]
		fx, err := newFixture(wl, o.scale, o.seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runPhase(o, wl, fx, wl.stack, newTracer(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var self, wall time.Duration
		for _, v := range p.lt.self {
			self += time.Duration(v)
		}
		for i, d := range p.r.iterWall {
			wall += d
			self += d - p.r.iterOps[i] // the benchmark's own time
		}
		res := (float64(self) - float64(wall)) / float64(wall)
		t.Logf("%s: self times sum to %v, wall time %v (residual %+.4f)", w, self, wall, res)
		if res > residualHigh || res < -residualLow {
			t.Errorf("%s: self times sum to %v, wall time %v (residual %+.4f, outside [-%.2f, +%.2f])", w, self, wall, res, residualLow, residualHigh)
		}
		for _, l := range []string{layerOp, layerNFSClient, layerHop1, layerNetem, layerNFS3, layerVFS} {
			if p.lt.calls[l] == 0 || p.lt.busy[l] <= 0 {
				t.Errorf("%s: layer %s: %d calls, busy %v", w, l, p.lt.calls[l], time.Duration(p.lt.busy[l]))
			}
			if p.lt.self[l] < 0 || p.lt.self[l] > p.lt.busy[l] {
				t.Errorf("%s: layer %s: self %v outside [0, busy %v]", w, l, time.Duration(p.lt.self[l]), time.Duration(p.lt.busy[l]))
			}
		}
		for _, s := range p.spans {
			if s.Layer == layerHop1 && s.Start > p.r.iterSpan[0][0] && (s.Op == 0 || s.Parent == 0) {
				t.Fatalf("%s: hop-1 span %+v has no op or parent", w, s)
			}
		}
	}
}
