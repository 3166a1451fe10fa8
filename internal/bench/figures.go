package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
)

// Scale bundles the workload parameters for a harness run. FullScale
// keeps the paper's proportions (file sizes scaled 4× down with the
// client cache scaled identically); QuickScale is for smoke runs.
type Scale struct {
	Name             string
	IOzone           IOzoneConfig
	Postmark         PostmarkConfig
	MAB              MABConfig
	Seismic          SeismicConfig
	ClientCacheBytes int64
	Runs             int
	SampleInterval   time.Duration
	WANRTTs          []time.Duration // Figure 8's round-trip times
	MABRTT           time.Duration
}

// fig8RTTs is the paper's Figure 8 RTT sweep.
func fig8RTTs() []time.Duration {
	ms := time.Millisecond
	return []time.Duration{5 * ms, 10 * ms, 20 * ms, 40 * ms, 80 * ms}
}

// FullScale returns the paper-proportioned parameters.
func FullScale() Scale {
	return Scale{
		Name:             "full",
		IOzone:           IOzoneConfig{FileSize: 128 << 20, RecordSize: 32 * 1024, Passes: 2},
		Postmark:         PostmarkConfig{Directories: 100, Files: 500, Transactions: 1000},
		MAB:              MABConfig{Dirs: 13, Files: 449, Outputs: 194, CompileCPU: 2 * time.Millisecond},
		Seismic:          SeismicConfig{TraceBytes: 24 << 20},
		ClientCacheBytes: 32 << 20,
		Runs:             3,
		SampleInterval:   time.Second,
		WANRTTs:          fig8RTTs(),
		MABRTT:           40 * time.Millisecond,
	}
}

// QuickScale returns smoke-test parameters (~seconds per figure).
func QuickScale() Scale {
	return Scale{
		Name:             "quick",
		IOzone:           IOzoneConfig{FileSize: 8 << 20, RecordSize: 32 * 1024, Passes: 2},
		Postmark:         PostmarkConfig{Directories: 10, Files: 50, Transactions: 100},
		MAB:              MABConfig{Dirs: 6, Files: 60, Outputs: 26, CompileCPU: 200 * time.Microsecond},
		Seismic:          SeismicConfig{TraceBytes: 4 << 20, ComputeScale: 0.2},
		ClientCacheBytes: 2 << 20,
		Runs:             1,
		SampleInterval:   200 * time.Millisecond,
		WANRTTs:          fig8RTTs(),
		MABRTT:           40 * time.Millisecond,
	}
}

// RunFig4 regenerates Figure 4: IOzone read/reread runtime on every
// setup in LAN.
func RunFig4(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "Figure 4: IOzone read/reread runtime in LAN (%s scale: %d MiB file, %d MiB client cache, %d runs)\n",
		sc.Name, sc.IOzone.FileSize>>20, sc.ClientCacheBytes>>20, sc.Runs)
	tbl := NewTable("setup", "runtime(s)", "stddev", "MB/s", "vs gfs")
	var gfsMean float64
	results := map[Setup]*Sample{}
	for _, setup := range AllLANSetups {
		sample := &Sample{}
		var tput float64
		for run := 0; run < sc.Runs; run++ {
			st, err := BuildStack(StackConfig{Setup: setup, ClientCacheBytes: sc.ClientCacheBytes})
			if err != nil {
				return fmt.Errorf("fig4 %s: %w", setup, err)
			}
			if err := PreloadIOzoneFile(st, sc.IOzone); err != nil {
				st.Close()
				return err
			}
			res, err := RunIOzone(context.Background(), st.FS, sc.IOzone)
			st.Close()
			if err != nil {
				return fmt.Errorf("fig4 %s: %w", setup, err)
			}
			sample.AddDuration(res.Runtime)
			tput = res.Throughput
		}
		results[setup] = sample
		if setup == SetupGFS {
			gfsMean = sample.Mean()
		}
		_ = tput
	}
	for _, setup := range AllLANSetups {
		s := results[setup]
		rel := "-"
		if gfsMean > 0 && setup != SetupGFS && setup != SetupNFSv3 && setup != SetupNFSv4 {
			rel = fmt.Sprintf("%+.0f%%", (s.Mean()/gfsMean-1)*100)
		}
		mbps := float64(sc.IOzone.FileSize) * float64(sc.IOzone.Passes) / (1 << 20) / s.Mean()
		tbl.AddRow(string(setup), s.Mean(), s.StdDev(), mbps, rel)
	}
	fmt.Fprint(w, tbl.String())
	return nil
}

// RunFig56 regenerates Figures 5 and 6: client- and server-side
// proxy/daemon CPU (work) utilization over time during the IOzone run.
func RunFig56(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "Figures 5+6: IOzone proxy/daemon utilization over time (window %v)\n", sc.SampleInterval)
	setups := []Setup{SetupGFS, SetupSGFSSHA, SetupSGFSRC, SetupSGFSAES, SetupSFS}
	type series struct {
		client, server []metrics.Window
		avgC, avgS     float64
	}
	all := map[Setup]*series{}
	for _, setup := range setups {
		st, err := BuildStack(StackConfig{Setup: setup, ClientCacheBytes: sc.ClientCacheBytes})
		if err != nil {
			return err
		}
		if err := PreloadIOzoneFile(st, sc.IOzone); err != nil {
			st.Close()
			return err
		}
		cs := metrics.NewSampler(st.ClientMeter, sc.SampleInterval)
		ss := metrics.NewSampler(st.ServerMeter, sc.SampleInterval)
		start := time.Now()
		if _, err := RunIOzone(context.Background(), st.FS, sc.IOzone); err != nil {
			st.Close()
			return err
		}
		elapsed := time.Since(start)
		sr := &series{client: cs.Stop(), server: ss.Stop()}
		sr.avgC = st.ClientMeter.Busy().Seconds() / elapsed.Seconds() * 100
		sr.avgS = st.ServerMeter.Busy().Seconds() / elapsed.Seconds() * 100
		all[setup] = sr
		st.Close()
	}
	fmt.Fprintln(w, "Figure 5 (client side): average busy % and per-window series")
	for _, setup := range setups {
		sr := all[setup]
		fmt.Fprintf(w, "  %-9s avg %5.1f%%  series:", setup, sr.avgC)
		for _, win := range sr.client {
			fmt.Fprintf(w, " %4.1f", win.BusyPct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Figure 6 (server side): average busy % and per-window series")
	for _, setup := range setups {
		sr := all[setup]
		fmt.Fprintf(w, "  %-9s avg %5.1f%%  series:", setup, sr.avgS)
		for _, win := range sr.server {
			fmt.Fprintf(w, " %4.1f", win.BusyPct)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunFig7 regenerates Figure 7: PostMark per-phase runtimes in LAN.
func RunFig7(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "Figure 7: PostMark phase runtimes in LAN (%d dirs, %d files, %d transactions, %d runs)\n",
		sc.Postmark.withDefaults().Directories, sc.Postmark.withDefaults().Files,
		sc.Postmark.withDefaults().Transactions, sc.Runs)
	setups := []Setup{SetupNFSv3, SetupNFSv4, SetupSFS, SetupSGFSAES, SetupGFSSSH}
	tbl := NewTable("setup", "creation(s)", "transaction(s)", "deletion(s)", "total(s)")
	for _, setup := range setups {
		var cr, tx, del Sample
		for run := 0; run < sc.Runs; run++ {
			st, err := BuildStack(StackConfig{Setup: setup, ClientCacheBytes: sc.ClientCacheBytes})
			if err != nil {
				return err
			}
			res, err := RunPostmark(context.Background(), st.FS, sc.Postmark)
			st.Close()
			if err != nil {
				return fmt.Errorf("fig7 %s: %w", setup, err)
			}
			cr.AddDuration(res.Creation)
			tx.AddDuration(res.Transaction)
			del.AddDuration(res.Deletion)
		}
		tbl.AddRow(string(setup), cr.Mean(), tx.Mean(), del.Mean(), cr.Mean()+tx.Mean()+del.Mean())
	}
	fmt.Fprint(w, tbl.String())
	return nil
}

// RunFig8 regenerates Figure 8: PostMark total runtime vs network RTT
// for nfs-v3 and sgfs (with disk caching).
func RunFig8(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "Figure 8: PostMark total runtime vs RTT, nfs-v3 vs sgfs(+disk cache)\n")
	tbl := NewTable("RTT(ms)", "nfs-v3(s)", "sgfs(s)", "speedup")
	for _, rtt := range sc.WANRTTs {
		var times [2]float64
		for i, cfg := range []StackConfig{
			{Setup: SetupNFSv3, RTT: rtt, ClientCacheBytes: sc.ClientCacheBytes},
			{Setup: SetupSGFSAES, RTT: rtt, DiskCache: true, ClientCacheBytes: sc.ClientCacheBytes},
		} {
			var s Sample
			for run := 0; run < sc.Runs; run++ {
				st, err := BuildStack(cfg)
				if err != nil {
					return err
				}
				res, err := RunPostmark(context.Background(), st.FS, sc.Postmark)
				st.Close()
				if err != nil {
					return fmt.Errorf("fig8 rtt=%v: %w", rtt, err)
				}
				s.AddDuration(res.Total())
			}
			times[i] = s.Mean()
		}
		tbl.AddRow(int(rtt.Milliseconds()), times[0], times[1], times[0]/times[1])
	}
	fmt.Fprint(w, tbl.String())
	return nil
}

// mabLine runs MAB once on a configuration and returns the phases plus
// the final write-back time.
func mabLine(cfg StackConfig, sc Scale) (MABResult, time.Duration, error) {
	st, err := BuildStack(cfg)
	if err != nil {
		return MABResult{}, 0, err
	}
	defer st.Close()
	if err := SeedMABSource(st, sc.MAB); err != nil {
		return MABResult{}, 0, err
	}
	res, err := RunMAB(context.Background(), st.FS, sc.MAB)
	if err != nil {
		return MABResult{}, 0, err
	}
	var flush time.Duration
	if st.Flush != nil {
		fs := time.Now()
		if err := st.Flush(context.Background()); err != nil {
			return res, 0, err
		}
		flush = time.Since(fs)
	}
	return res, flush, nil
}

// RunFig9 regenerates Figure 9: MAB phase runtimes, LAN and WAN.
func RunFig9(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "Figure 9: MAB phase runtimes, LAN and WAN (%v RTT); %d files\n",
		sc.MABRTT, sc.MAB.withDefaults().Files)
	tbl := NewTable("config", "copy(s)", "stat(s)", "search(s)", "compile(s)", "total(s)", "writeback(s)")
	rows := []struct {
		label string
		cfg   StackConfig
	}{
		{"nfs-v3 LAN", StackConfig{Setup: SetupNFSv3, ClientCacheBytes: sc.ClientCacheBytes}},
		{"sgfs   LAN", StackConfig{Setup: SetupSGFSAES, ClientCacheBytes: sc.ClientCacheBytes}},
		{"nfs-v3 WAN", StackConfig{Setup: SetupNFSv3, RTT: sc.MABRTT, ClientCacheBytes: sc.ClientCacheBytes}},
		{"sgfs   WAN", StackConfig{Setup: SetupSGFSAES, RTT: sc.MABRTT, DiskCache: true, ClientCacheBytes: sc.ClientCacheBytes}},
	}
	for _, row := range rows {
		var cp, st2, se, co, fl Sample
		for run := 0; run < sc.Runs; run++ {
			res, flush, err := mabLine(row.cfg, sc)
			if err != nil {
				return fmt.Errorf("fig9 %s: %w", row.label, err)
			}
			cp.AddDuration(res.Copy)
			st2.AddDuration(res.Stat)
			se.AddDuration(res.Search)
			co.AddDuration(res.Compile)
			fl.AddDuration(flush)
		}
		tbl.AddRow(row.label, cp.Mean(), st2.Mean(), se.Mean(), co.Mean(),
			cp.Mean()+st2.Mean()+se.Mean()+co.Mean(), fl.Mean())
	}
	fmt.Fprint(w, tbl.String())
	return nil
}

// RunFig10 regenerates Figure 10: Seismic phase runtimes, LAN and WAN.
func RunFig10(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "Figure 10: Seismic phase runtimes, LAN and WAN (%v RTT); %d MiB trace\n",
		sc.MABRTT, sc.Seismic.withDefaults().TraceBytes>>20)
	tbl := NewTable("config", "phase1(s)", "phase2(s)", "phase3(s)", "phase4(s)", "total(s)", "writeback(s)")
	rows := []struct {
		label string
		cfg   StackConfig
	}{
		{"nfs-v3 LAN", StackConfig{Setup: SetupNFSv3, ClientCacheBytes: sc.ClientCacheBytes}},
		{"sgfs   LAN", StackConfig{Setup: SetupSGFSAES, ClientCacheBytes: sc.ClientCacheBytes}},
		{"nfs-v3 WAN", StackConfig{Setup: SetupNFSv3, RTT: sc.MABRTT, ClientCacheBytes: sc.ClientCacheBytes}},
		{"sgfs   WAN", StackConfig{Setup: SetupSGFSAES, RTT: sc.MABRTT, DiskCache: true, ClientCacheBytes: sc.ClientCacheBytes}},
	}
	for _, row := range rows {
		var p1, p2, p3, p4, fl Sample
		for run := 0; run < sc.Runs; run++ {
			st, err := BuildStack(row.cfg)
			if err != nil {
				return err
			}
			res, err := RunSeismic(context.Background(), st.FS, sc.Seismic)
			if err != nil {
				st.Close()
				return fmt.Errorf("fig10 %s: %w", row.label, err)
			}
			var flush time.Duration
			if st.Flush != nil {
				fs := time.Now()
				if err := st.Flush(context.Background()); err != nil {
					st.Close()
					return err
				}
				flush = time.Since(fs)
			}
			st.Close()
			p1.AddDuration(res.Phase1)
			p2.AddDuration(res.Phase2)
			p3.AddDuration(res.Phase3)
			p4.AddDuration(res.Phase4)
			fl.AddDuration(flush)
		}
		tbl.AddRow(row.label, p1.Mean(), p2.Mean(), p3.Mean(), p4.Mean(),
			p1.Mean()+p2.Mean()+p3.Mean()+p4.Mean(), fl.Mean())
	}
	fmt.Fprint(w, tbl.String())
	return nil
}
