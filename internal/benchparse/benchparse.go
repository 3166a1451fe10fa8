// Package benchparse parses `go test -bench` output into structured
// results for the benchmark-archiving commands (sgfs-bench5,
// sgfs-bench6).
package benchparse

import (
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Package     string             `json:"package"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	OpsPerSec   float64            `json:"ops_per_sec"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Parse extracts benchmark lines from `go test -bench` output. A line
// looks like:
//
//	BenchmarkCallEcho-4  9506  118419 ns/op  1320 B/op  15 allocs/op
//	BenchmarkFlushScaling/window=8-4  1  310146346 ns/op  117.0 flush-ms
func Parse(pkg, out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{
			Package:    pkg,
			Name:       strings.TrimSuffix(fields[0], "-"+lastDash(fields[0])),
			Iterations: iters,
		}
		// The remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
				if val > 0 {
					r.OpsPerSec = 1e9 / val
				}
			case "B/op":
				v := val
				r.BytesPerOp = &v
			case "allocs/op":
				v := val
				r.AllocsPerOp = &v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = val
			}
		}
		results = append(results, r)
	}
	return results
}

// lastDash returns the GOMAXPROCS suffix of a benchmark name ("4" in
// "BenchmarkCallEcho-4"), or "" when there is none.
func lastDash(name string) string {
	if i := strings.LastIndex(name, "-"); i >= 0 {
		return name[i+1:]
	}
	return ""
}
