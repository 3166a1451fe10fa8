package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's resident-set high-water mark in MiB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// layerTimes attributes traced time to layers.
type layerTimes struct {
	wall  int64            // sum of the iteration windows
	busy  map[string]int64 // time each layer had a span open
	self  map[string]int64 // busy time less the time its child layers had a span open
	calls map[string]int
	durs  map[string][]int64
}

// interval is a stretch of time [a, b) on the tracer clock.
type interval struct{ a, b int64 }

// union merges xs into disjoint intervals in time order.
func union(xs []interval) []interval {
	sort.Slice(xs, func(i, j int) bool { return xs[i].a < xs[j].a })
	var out []interval
	for _, x := range xs {
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, x.b)
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(xs []interval) int64 {
	var n int64
	for _, x := range xs {
		n += x.b - x.a
	}
	return n
}

// overlap is the time two unions have in common.
func overlap(xs, ys []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(xs) && j < len(ys); {
		if a, b := max(xs[i].a, ys[j].a), min(xs[i].b, ys[j].b); b > a {
			n += b - a
		}
		if xs[i].b < ys[j].b {
			i++
		} else {
			j++
		}
	}
	return n
}

// attribute measures each layer's spans, clipped to the iteration
// windows, on their own terms: its busy time is the time it had a span
// open, and its self time is its busy time less the time its child
// layers had a span open while it did. Nothing forces the self times
// to sum to the wall time: work a layer does with no caller's span
// open (background readahead or write-back) is counted once in its
// own self time and in no caller's, so it shows as a residual over the
// wall time; and callee time that two callers' open spans both cover
// is taken off both, which shows as a shortfall.
func attribute(spans []span, windows [][2]int64) layerTimes {
	lt := layerTimes{self: map[string]int64{}, busy: map[string]int64{}, calls: map[string]int{}, durs: map[string][]int64{}}
	for _, w := range windows {
		lt.wall += w[1] - w[0]
	}
	clipped := map[string][]interval{}
	for _, s := range spans {
		if _, ok := layerChildren[s.Layer]; !ok {
			continue
		}
		// First window ending after the span starts.
		i := sort.Search(len(windows), func(i int) bool { return windows[i][1] > s.Start })
		if i < len(windows) && s.Start >= windows[i][0] {
			lt.calls[s.Layer]++
			lt.durs[s.Layer] = append(lt.durs[s.Layer], s.End-s.Start)
		}
		for ; i < len(windows) && windows[i][0] < s.End; i++ {
			if a, b := max(s.Start, windows[i][0]), min(s.End, windows[i][1]); b > a {
				clipped[s.Layer] = append(clipped[s.Layer], interval{a, b})
			}
		}
	}
	unions := map[string][]interval{}
	for l, xs := range clipped {
		unions[l] = union(xs)
		lt.busy[l] = length(unions[l])
	}
	for _, l := range spanLayers {
		var kids []interval
		for _, c := range layerChildren[l] {
			kids = append(kids, unions[c]...)
		}
		lt.self[l] = lt.busy[l] - overlap(unions[l], union(kids))
	}
	return lt
}
