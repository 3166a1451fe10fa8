package bench

import (
	"strings"
	"testing"
	"time"
)

// smokeScale keeps figure-runner tests to a couple of seconds.
func smokeScale() Scale {
	sc := QuickScale()
	sc.IOzone = IOzoneConfig{FileSize: 1 << 20, RecordSize: 32 * 1024, Passes: 2}
	sc.Postmark = PostmarkConfig{Directories: 3, Files: 10, Transactions: 20}
	sc.MAB = MABConfig{Dirs: 4, Files: 12, Outputs: 6, CompileCPU: time.Microsecond}
	sc.Seismic = SeismicConfig{TraceBytes: 1 << 20, ComputeScale: 0.05}
	sc.ClientCacheBytes = 256 * 1024
	sc.Runs = 1
	sc.SampleInterval = 50 * time.Millisecond
	sc.WANRTTs = []time.Duration{1 * time.Millisecond, 2 * time.Millisecond}
	sc.MABRTT = 2 * time.Millisecond
	return sc
}

func TestRunFig4ProducesAllSetups(t *testing.T) {
	var out strings.Builder
	if err := RunFig4(&out, smokeScale()); err != nil {
		t.Fatal(err)
	}
	for _, setup := range AllLANSetups {
		if !strings.Contains(out.String(), string(setup)) {
			t.Fatalf("figure 4 output missing %s:\n%s", setup, out.String())
		}
	}
}

func TestRunFig56ProducesBothSeries(t *testing.T) {
	var out strings.Builder
	if err := RunFig56(&out, smokeScale()); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 5") || !strings.Contains(s, "Figure 6") {
		t.Fatalf("missing series:\n%s", s)
	}
	if !strings.Contains(s, "sfs") || !strings.Contains(s, "sgfs-aes") {
		t.Fatalf("missing setups:\n%s", s)
	}
}

func TestRunFig7(t *testing.T) {
	var out strings.Builder
	if err := RunFig7(&out, smokeScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "transaction") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunFig8(t *testing.T) {
	var out strings.Builder
	if err := RunFig8(&out, smokeScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "speedup") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunFig9(t *testing.T) {
	var out strings.Builder
	if err := RunFig9(&out, smokeScale()); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "sgfs   WAN") || !strings.Contains(s, "writeback") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestRunFig10(t *testing.T) {
	var out strings.Builder
	if err := RunFig10(&out, smokeScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "phase4") {
		t.Fatalf("output:\n%s", out.String())
	}
}
