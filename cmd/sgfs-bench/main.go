// Command sgfs-bench regenerates the evaluation figures of "A
// User-level Secure Grid File System" (SC'07) against this
// implementation. Every component — NFS servers and clients, SGFS
// proxies, secure channels, the SSH-tunnel and SFS baselines, and the
// WAN emulator — runs in-process over loopback TCP.
//
// Usage:
//
//	sgfs-bench -fig all            # every figure, full scale
//	sgfs-bench -fig 4 -runs 5      # just Figure 4, five runs each
//	sgfs-bench -fig 8 -quick       # smoke-scale Figure 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4, 5, 6, 7, 8, 9, 10 or all")
	quick := flag.Bool("quick", false, "use smoke-test workload sizes")
	runs := flag.Int("runs", 0, "override the number of runs per data point")
	rtts := flag.String("rtts", "", "override the Figure 8 RTT list, comma-separated milliseconds (e.g. \"5,40,80\")")
	flag.Parse()

	sc := bench.FullScale()
	if *quick {
		sc = bench.QuickScale()
	}
	if *runs > 0 {
		sc.Runs = *runs
	}
	if *rtts != "" {
		var list []time.Duration
		for _, part := range strings.Split(*rtts, ",") {
			ms, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "sgfs-bench: bad -rtts value %q\n", part)
				os.Exit(2)
			}
			list = append(list, time.Duration(ms)*time.Millisecond)
		}
		sc.WANRTTs = list
	}

	type runner struct {
		name string
		fn   func() error
	}
	w := os.Stdout
	runners := []runner{
		{"4", func() error { return bench.RunFig4(w, sc) }},
		{"5", func() error { return bench.RunFig56(w, sc) }},
		{"7", func() error { return bench.RunFig7(w, sc) }},
		{"8", func() error { return bench.RunFig8(w, sc) }},
		{"9", func() error { return bench.RunFig9(w, sc) }},
		{"10", func() error { return bench.RunFig10(w, sc) }},
	}

	want := strings.Split(*fig, ",")
	matches := func(name string) bool {
		for _, f := range want {
			f = strings.TrimSpace(f)
			if f == "all" || f == name {
				return true
			}
			// Figures 5 and 6 are produced by one run.
			if name == "5" && f == "6" {
				return true
			}
		}
		return false
	}

	ran := false
	for _, r := range runners {
		if !matches(r.name) {
			continue
		}
		ran = true
		if err := r.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "sgfs-bench: figure %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "sgfs-bench: unknown figure %q (want 4-10 or all)\n", *fig)
		os.Exit(2)
	}
}
