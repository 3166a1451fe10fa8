// Command perfbench is the SGFS benchmark. It assembles an SGFS
// deployment in one process (NFS client, client proxy, emulated WAN,
// server proxy, NFS server, in-memory storage), runs one seeded
// workload against it in a closed loop for a fixed time, checks every
// byte the workload reads and writes back, and prints its metrics.
//
// Usage:
//
//	perfbench --workload lan-seqread|wan-postmark|wan-bulk --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs untraced, then traced, and prints per-layer
// metrics: each layer boundary is tapped from outside and the spans
// are written to --trace-dir. The last line of standard output is the
// result as one JSON object; the line before it is a fuller report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/vfs"
)

// options configure one benchmark invocation.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	scale    Scale
	workDir  string
	traceDir string // "" keeps spans in memory only
	// wrapBackend, when set, decorates the server storage (tests).
	wrapBackend func(vfs.FS) vfs.FS
}

// result is the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	report    map[string]any
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "lan-seqread, wan-postmark or wan-bulk")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run with per-layer metrics")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build/work", "scratch directory for the disk cache")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "where traced runs write their spans")
	flag.Parse()
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.scale = fullScale

	res, err := runBenchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := json.Marshal(map[string]any{"report": res.report})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(rep))
	fmt.Println(string(out))
}

func runBenchmark(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.workDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.workDir = work

	fx, err := newFixture(w, o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	res := &result{report: map[string]any{"workload": w.name, "stack": w.stack, "seed": o.seed, "procs": runtime.GOMAXPROCS(0)}}
	if !o.trace {
		return res, endToEnd(o, w, fx, res)
	}
	return res, perLayer(o, w, fx, res)
}

// phase is one run of a workload on a freshly built stack.
type phase struct {
	r       *runner
	st      *stack
	vt      *vfsTap
	setup   []float64 // seconds per stack build
	cpu     time.Duration
	live    []float64 // MiB the mounted deployment holds live after each iteration
	liveMiB float64   // their median
	alloc   uint64
	gcs     uint32
	before  counters
	after   counters
	wan     wanSnapshot
	hop1    int // in-flight high-water marks
	hop2    int
	lt      layerTimes
	spans   []span
	dropped uint64 // spans not kept
}

// liveGCs is how many collections liveBytes forces.
const liveGCs = 2

// liveBytes is the live heap plus goroutine stacks, after collections
// that leave only what is reachable.
func liveBytes() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle empties the sync.Pool victim caches
	runtime.ReadMemStats(&m)
	return m.HeapAlloc + m.StackInuse
}

// runPhase builds the stack reps times (keeping the last), then runs
// the workload on it for o.duration.
func runPhase(o options, w *workload, fx *fixture, kind string, tr *tracer, reps int) (_ *phase, err error) {
	p := &phase{r: newRunner(w, o.scale, o.seed, fx)}
	cfg := stackConfig{kind: kind, pageCache: o.scale.LANPageCache, backend: fx.raw, workDir: o.workDir, tr: tr}
	if w.wan {
		cfg.rtt, cfg.diskCache, cfg.pageCache = o.scale.RTT, true, o.scale.WANPageCache
	}
	if o.wrapBackend != nil {
		cfg.backend = o.wrapBackend(cfg.backend)
	}
	if tr != nil {
		p.vt = &vfsTap{inner: cfg.backend, tr: tr}
		cfg.backend = p.vt
	}
	// Set-up is timed over reps builds; each but the last is torn down
	// before the next. The memory baseline is taken before the last:
	// it holds the server's preloaded storage, the benchmark's copies
	// of it and whatever the torn-down stacks left behind, so the live
	// figure after the run is the mounted deployment's own.
	var base uint64
	for i := 0; i < reps; i++ {
		if p.st != nil {
			if err := p.st.close(); err != nil {
				return nil, fmt.Errorf("tear down %s: %w", kind, err)
			}
		}
		if i == reps-1 {
			base = liveBytes()
		}
		start := time.Now()
		st, err := buildStack(cfg)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", kind, err)
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
		p.st = st
	}
	defer func() {
		if cerr := p.st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tear down %s: %w", kind, cerr)
		}
	}()
	p.r.st, p.r.tr = p.st, tr

	var ms0, ms1 runtime.MemStats
	p.before = p.st.counters(p.vt)
	if tr != nil {
		p.st.wan.take()
		p.st.hop1.takeHWM()
		p.st.hop2.takeHWM()
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	p.r.run(o.duration)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	// Live memory between iterations, with the stack mounted, less the
	// baseline: what the deployment retains (caches, buffers, files it
	// wrote). The median over iterations, because how much a link's
	// queues retain depends on the timing of the last exchanges.
	p.live = make([]float64, len(p.r.iterLive))
	for i, b := range p.r.iterLive {
		p.live[i] = (float64(b) - float64(base)) / (1 << 20)
	}
	p.liveMiB = median(p.live)
	p.after = p.st.counters(p.vt)
	p.alloc, p.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	if tr != nil {
		p.wan = p.st.wan.take()
		p.hop1, p.hop2 = p.st.hop1.takeHWM(), p.st.hop2.takeHWM()
		p.st.wan.closeSpans()
		p.spans, p.dropped = tr.finish()
		p.lt = attribute(p.spans, p.r.iterSpan)
		if o.traceDir != "" {
			if err := writeSpans(filepath.Join(o.traceDir, fmt.Sprintf("%s-%s-seed%d.jsonl", w.name, kind, o.seed)), p.spans); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// counters are the cumulative statistics the layers export.
type counters struct {
	clientBusy, serverBusy, chanClient, chanServer time.Duration
	pageHits, pageMisses                           uint64
	aclHits, aclMisses                             uint64
	cache                                          cache.Stats
	dp                                             metrics.DataPathSnapshot
	vfsWritten                                     uint64
}

func (s *stack) counters(vt *vfsTap) counters {
	c := counters{
		clientBusy: s.clientMeter.Busy(), serverBusy: s.serverMeter.Busy(),
		chanClient: s.chanClient.Busy(), chanServer: s.chanServer.Busy(),
		dp: s.cp.DataPathStats(),
	}
	c.pageHits, c.pageMisses = s.nfs.CacheStats()
	c.aclHits, c.aclMisses = s.sp.ACLCacheStats()
	if cs, ok := s.cp.CacheStats(); ok {
		c.cache = cs
	}
	if vt != nil {
		c.vfsWritten = vt.written.Load()
	}
	return c
}

// iterFigure is the median over iterations of the throughput of the
// given op kinds, in MB/s.
func (r *runner) iterFigure(kinds ...string) float64 {
	var xs []float64
	for _, it := range r.iterStats {
		var b, s float64
		for _, k := range kinds {
			b += it[k+"_bytes"]
			s += it[k+"_s"]
		}
		if s > 0 {
			xs = append(xs, b/1e6/s)
		}
	}
	return median(xs)
}

func (r *runner) latencies(kinds ...string) []float64 {
	var out []float64
	for _, k := range kinds {
		out = append(out, ms(r.lat[k])...)
	}
	return out
}

func (r *runner) payload() int64 {
	var n int64
	for _, b := range r.bytes {
		n += b
	}
	return n
}

func (res *result) account(r *runner) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(r.failures) > 0 {
		res.report["failures"] = r.failures
	}
}

// endToEnd runs the workload untraced and reports what a user sees.
func endToEnd(o options, w *workload, fx *fixture, res *result) error {
	p, err := runPhase(o, w, fx, w.stack, nil, o.scale.SetupReps)
	if err != nil {
		return err
	}
	r := p.r
	res.account(r)
	lat := r.latencies(w.latKinds...)
	mib := float64(r.payload()) / (1 << 20)
	// Every workload reports these, and none moves with the seed.
	// total_s counts only the time spent in the workload's ops: the
	// benchmark's own preloads and checks between them are not the
	// system's work. The median op is in the report only: on
	// lan-seqread and wan-bulk it falls between two kinds of op
	// (readahead or cache hits, and waits), so it jumped by a fifth
	// when the host got a little faster.
	res.Metrics = map[string]metric{
		"setup_s":      {median(p.setup), "s"},
		"total_s":      {median(seconds(r.iterOps)), "s"},
		"op_p90_ms":    {quantile(lat, 0.9), "ms"},
		"mem_live_MiB": {p.liveMiB, "MiB"},
	}

	// The fuller report: error rate, sample counts, each op kind's
	// latency and throughput, and the workload-specific figures.
	kinds := map[string]any{}
	for k, ds := range r.lat {
		x := ms(ds)
		e := map[string]float64{"n": float64(len(x)), "p50_ms": quantile(x, 0.5), "p90_ms": quantile(x, 0.9), "p99_ms": quantile(x, 0.99)}
		if r.bytes[k] > 0 {
			e["MBps"] = r.iterFigure(k)
		}
		kinds[k] = e
	}
	var flush []float64
	for _, it := range r.iterStats {
		if v, ok := it["flush_s"]; ok {
			flush = append(flush, v)
		}
	}
	res.report["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.report["iterations"] = len(r.iterWall)
	res.report["iteration_s"] = seconds(r.iterWall)
	res.report["iteration_ops_s"] = seconds(r.iterOps)
	res.report["iteration_live_MiB"] = p.live
	res.report["setup_reps"] = len(p.setup)
	res.report["op_samples"] = len(lat)
	res.report["op_p50_ms"] = quantile(lat, 0.5)
	res.report["ops"] = kinds
	res.report["payload_MiB"] = mib
	res.report["read_MBps"] = r.iterFigure(w.readKinds...)
	res.report["cpu_ms_per_MiB"] = ratio(float64(p.cpu)/1e6, mib)
	res.report["cpu_ms_per_op"] = ratio(float64(p.cpu)/1e6, float64(r.attempted))
	res.report["rss_peak_MiB"] = peakRSS()
	if len(flush) > 0 {
		res.report["flush_s"] = median(flush)
		res.report["write_MBps"] = r.iterFigure("create", "write", "close")
	}
	if _, ok := r.lat["reread"]; ok {
		res.report["reread_MBps"] = r.iterFigure("reread")
	}
	return nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// perLayer runs the workload untraced and then traced, and reports
// per-layer metrics per workload iteration. On lan-seqread it traces
// the gfs stack too and reports the per-layer gap.
func perLayer(o options, w *workload, fx *fixture, res *result) error {
	base, err := runPhase(o, w, fx, w.stack, nil, 1)
	if err != nil {
		return err
	}
	res.account(base.r)
	traced, err := runPhase(o, w, fx, w.stack, newTracer(), 1)
	if err != nil {
		return err
	}
	res.account(traced.r)
	res.Metrics = traced.layerMetrics()
	untracedIter := median(seconds(base.r.iterOps))
	res.Metrics["trace.overhead_pct"] = metric{100 * (median(seconds(traced.r.iterOps))/untracedIter - 1), "%"}

	if w.name == "lan-seqread" {
		// Diagnostic only: where sgfs-sha's time goes that gfs's does
		// not, per iteration.
		gfs, err := runPhase(o, w, fx, stackGFS, newTracer(), 1)
		if err != nil {
			return err
		}
		res.account(gfs.r)
		g := gfs.layerMetrics()
		sum := func(m map[string]metric, keys ...string) float64 {
			var v float64
			for _, k := range keys {
				v += m[k].Value
			}
			return v
		}
		gap := map[string]float64{}
		for _, k := range []string{"bench.wall_ms", "bench.self_ms"} {
			gap[k] = res.Metrics[k].Value - g[k].Value
		}
		for _, l := range spanLayers {
			gap[l+".self_ms"] = res.Metrics[l+".self_ms"].Value - g[l+".self_ms"].Value
		}
		for name, keys := range map[string][]string{
			"securechan_ms": {"securechan.client_ms", "securechan.server_ms"},
			"proxy_ms":      {"proxy.client.busy_ms", "proxy.server.busy_ms"},
		} {
			gap[name] = sum(res.Metrics, keys...) - sum(g, keys...)
		}
		res.report["gap_sgfs_sha_minus_gfs"] = gap
		res.report["gfs_layers"] = g
	}
	res.report["iterations"] = len(traced.r.iterWall)
	res.report["untraced_total_s"] = untracedIter
	res.report["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	return nil
}

// layerMetrics are a traced phase's per-layer figures. Counts and
// times are per workload iteration; ratios and high-water marks are
// over the run.
func (p *phase) layerMetrics() map[string]metric {
	r, lt := p.r, p.lt
	iters := float64(len(r.iterWall))
	per := func(x float64) float64 { return x / iters }
	perMs := func(ns int64) float64 { return float64(ns) / 1e6 / iters }
	d := func(a, b time.Duration) float64 { return float64(b-a) / 1e6 / iters }
	b, a := p.before, p.after
	ops := float64(r.attempted)
	payload := float64(r.payload())
	mib := payload / (1 << 20)
	// The benchmark's own time, between its ops, by its own clock.
	var wall, benchSelf time.Duration
	for i := range r.iterWall {
		wall += r.iterWall[i]
		benchSelf += r.iterWall[i] - r.iterOps[i]
	}
	m := map[string]metric{
		"bench.wall_ms": {perMs(int64(wall)), "ms"},
		"bench.self_ms": {perMs(int64(benchSelf)), "ms"},
	}
	for _, l := range spanLayers {
		m[l+".calls"] = metric{per(float64(lt.calls[l])), "count"}
		m[l+".busy_ms"] = metric{perMs(lt.busy[l]), "ms"}
		m[l+".self_ms"] = metric{perMs(lt.self[l]), "ms"}
	}
	var hop1 []float64
	for _, x := range lt.durs[layerHop1] {
		hop1 = append(hop1, float64(x)/1e3)
	}
	self := int64(benchSelf)
	for _, v := range lt.self {
		self += v
	}
	cs := a.cache
	bc := b.cache
	add := map[string]metric{
		"nfsclient.rpcs_per_op":    {ratio(float64(lt.calls[layerHop1]), ops), "count"},
		"nfsclient.page_hit_ratio": {ratio(float64(a.pageHits-b.pageHits), float64(a.pageHits-b.pageHits+a.pageMisses-b.pageMisses)), "ratio"},
		"oncrpc.hop1.p50_us":       {median(hop1), "us"},
		"oncrpc.hop1.inflight_hwm": {float64(p.hop1), "count"},

		"proxy.client.busy_ms":              {d(b.clientBusy, a.clientBusy), "ms"},
		"proxy.server.busy_ms":              {d(b.serverBusy, a.serverBusy), "ms"},
		"proxy.client.upstream_msgs_per_op": {ratio(float64(p.wan.msgsUp), ops), "count"},
		"proxy.server.acl_hit_ratio":        {ratio(float64(a.aclHits-b.aclHits), float64(a.aclHits-b.aclHits+a.aclMisses-b.aclMisses)), "ratio"},
		"proxy.datapath.readahead_issued":   {per(float64(a.dp.ReadaheadIssued - b.dp.ReadaheadIssued)), "count"},
		"proxy.datapath.readahead_dropped":  {per(float64(a.dp.ReadaheadDropped - b.dp.ReadaheadDropped)), "count"},
		"proxy.datapath.inflight_dedup":     {per(float64(a.dp.InflightDedup - b.dp.InflightDedup)), "count"},
		"proxy.datapath.flushed_blocks":     {per(float64(a.dp.FlushedBlocks - b.dp.FlushedBlocks)), "count"},
		"proxy.datapath.flush_peak":         {float64(a.dp.FlushPeak), "count"},
		"proxy.datapath.flush_retries":      {per(float64(a.dp.FlushRetries - b.dp.FlushRetries)), "count"},

		"cache.block_hit_ratio": {ratio(float64(cs.BlockHits-bc.BlockHits), float64(cs.BlockHits-bc.BlockHits+cs.BlockMisses-bc.BlockMisses)), "ratio"},
		"cache.readahead_hits":  {per(float64(cs.ReadaheadHits - bc.ReadaheadHits)), "count"},
		"cache.lock_wait_ms":    {per(float64(cs.LockWaitNanos-bc.LockWaitNanos) / 1e6), "ms"},
		"cache.flushed_bytes":   {per(float64(cs.FlushedBytes - bc.FlushedBytes)), "B"},
		"cache.attr_hit_ratio":  {ratio(float64(cs.AttrHits-bc.AttrHits), float64(cs.AttrHits-bc.AttrHits+cs.AttrMisses-bc.AttrMisses)), "ratio"},

		"securechan.client_ms":                   {d(b.chanClient, a.chanClient), "ms"},
		"securechan.server_ms":                   {d(b.chanServer, a.chanServer), "ms"},
		"securechan.wire_bytes_per_payload_byte": {ratio(float64(p.wan.bytesUp+p.wan.bytesDown), payload), "B/B"},

		"netem.round_trips":    {per(float64(p.wan.roundTrips)), "count"},
		"netem.bytes_up":       {per(float64(p.wan.bytesUp)), "B"},
		"netem.bytes_down":     {per(float64(p.wan.bytesDown)), "B"},
		"netem.delay_floor_ms": {per(float64(p.wan.roundTrips)) * float64(p.st.wan.rtt) / 1e6, "ms"},

		"nfs3.inflight_hwm":       {float64(p.hop2), "count"},
		"vfs.write_amplification": {ratio(float64(a.vfsWritten-b.vfsWritten), float64(r.bytes["write"]+r.bytes["create"]+r.bytes["append"])), "B/B"},

		"runtime.alloc_bytes_per_MiB": {ratio(float64(p.alloc), mib), "B/MiB"},
		"runtime.gc_cycles":           {per(float64(p.gcs) - liveGCs*float64(len(r.iterLive))), "count"},

		"trace.residual_pct":  {100 * ratio(float64(self)-float64(wall), float64(wall)), "%"},
		"trace.spans":         {per(float64(len(p.spans))), "count"},
		"trace.spans_dropped": {float64(p.dropped), "count"},
	}
	for k, v := range add {
		m[k] = v
	}
	return m
}
