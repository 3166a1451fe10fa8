package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/vfs"
)

// opTimeout is each workload op's deadline; an op that hits it fails.
const opTimeout = 30 * time.Second

// Scale sizes the workloads.
type Scale struct {
	LANPageCache int64 // nfsclient page cache on lan-seqread
	SeqFile      int64 // lan-seqread file (>= 4x LANPageCache)
	WANPageCache int64 // nfsclient page cache on the WAN workloads
	RTT          time.Duration
	PMDirs       int   // PostMark directory pool
	PMFiles      int   // PostMark initial files
	PMTx         int   // PostMark transactions
	BulkFiles    int   // wan-bulk files written per iteration
	BulkFileSize int64 // bytes per written file
	BulkRead     int64 // wan-bulk cold-read file (>= 4x WANPageCache)
	SetupReps    int   // stacks built to time set-up
}

// fullScale is the scale the benchmark runs at.
var fullScale = Scale{
	LANPageCache: 8 << 20,
	SeqFile:      32 << 20,
	WANPageCache: 2 << 20,
	RTT:          20 * time.Millisecond,
	PMDirs:       5,
	PMFiles:      20,
	PMTx:         40,
	BulkFiles:    4,
	BulkFileSize: 1 << 20,
	BulkRead:     8 << 20,
	SetupReps:    9,
}

// workload is one benchmark workload: the stack it runs on, and one
// iteration of its load. Iterations repeat until the run's time is up.
type workload struct {
	name      string
	stack     string
	wan       bool // 20 ms RTT and the client proxy disk cache
	latKinds  []string
	readKinds []string // ops whose bytes and time make read_MBps
	prepare   func(fx *fixture, sc Scale, seed int64) error
	iterate   func(r *runner, iter int) error
}

// fixture is the server's storage, shared by every stack a run
// builds, and the content of the file preloaded into it.
type fixture struct {
	raw *vfs.MemFS
	seq []byte // lan-seqread's file
}

// newFixture makes w's server storage and preloads it.
func newFixture(w *workload, sc Scale, seed int64) (*fixture, error) {
	fx := &fixture{raw: vfs.NewMemFS()}
	if w.prepare != nil {
		if err := w.prepare(fx, sc, seed); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

var workloads = map[string]*workload{
	"lan-seqread": {
		name: "lan-seqread", stack: stackSHA,
		latKinds: []string{"read", "reread"}, readKinds: []string{"read", "reread"},
		prepare: func(fx *fixture, sc Scale, seed int64) error {
			fx.seq = pattern(seqKey(seed), sc.SeqFile)
			return fx.put(seqFile, fx.seq)
		},
		iterate: seqIteration,
	},
	"wan-postmark": {
		name: "wan-postmark", stack: stackAES, wan: true,
		latKinds:  []string{"mkdir", "create", "read", "append", "delete", "rmdir"},
		readKinds: []string{"read"},
		iterate:   postmarkIteration,
	},
	"wan-bulk": {
		name: "wan-bulk", stack: stackAES, wan: true,
		latKinds:  []string{"create", "write", "close", "flush", "open", "read", "reread"},
		readKinds: []string{"read"},
		iterate:   bulkIteration,
	},
}

// runner drives one workload against one stack in a closed loop: one
// client goroutine, one op outstanding.
type runner struct {
	w    *workload
	sc   Scale
	seed int64
	fx   *fixture // server storage, for preloads and checks
	st   *stack
	tr   *tracer

	attempted, failed uint64
	failures          []string

	// per-iteration and per-run tallies
	lat       map[string][]time.Duration // op latencies by kind
	bytes     map[string]int64           // payload bytes by op kind
	iterStats []map[string]float64       // per-iteration phase figures
	iterWall  []time.Duration
	iterOps   []time.Duration // time inside ops, per iteration
	iterSpan  [][2]int64      // iteration windows on the tracer clock
	iterLive  []uint64        // live bytes after each iteration
	cur       map[string]float64
	curOps    time.Duration
}

func newRunner(w *workload, sc Scale, seed int64, fx *fixture) *runner {
	return &runner{
		w: w, sc: sc, seed: seed, fx: fx,
		lat: make(map[string][]time.Duration), bytes: make(map[string]int64),
	}
}

// op runs one workload op under its deadline, records its latency, and
// reports whether it succeeded. An error fails the op; it is never
// retried.
func (r *runner) op(kind string, n int64, f func(ctx context.Context) error) bool {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var tStart int64
	if r.tr != nil {
		tStart = r.tr.now()
	}
	start := time.Now()
	err := f(ctx)
	d := time.Since(start)
	if r.tr != nil {
		r.tr.addSpan(layerOp, kind, tStart, r.tr.now())
	}
	r.attempted++
	r.curOps += d
	r.lat[kind] = append(r.lat[kind], d)
	r.cur[kind+"_s"] += d.Seconds()
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", kind, err))
		return false
	}
	r.bytes[kind] += n
	r.cur[kind+"_bytes"] += float64(n)
	return true
}

// fail counts a failed op, or a failed check of an op's output.
func (r *runner) fail(err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// run repeats the workload's iterations until d has passed (at least
// one iteration).
func (r *runner) run(d time.Duration) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		r.cur, r.curOps = make(map[string]float64), 0
		var t0 int64
		if r.tr != nil {
			t0 = r.tr.now()
		}
		begin := time.Now()
		if err := r.w.iterate(r, i); err != nil {
			r.fail(err)
		}
		r.iterWall = append(r.iterWall, time.Since(begin))
		r.iterOps = append(r.iterOps, r.curOps)
		if r.tr != nil {
			r.iterSpan = append(r.iterSpan, [2]int64{t0, r.tr.now()})
		}
		r.iterStats = append(r.iterStats, r.cur)
		r.iterLive = append(r.iterLive, liveBytes())
	}
}

// --- seeded data -------------------------------------------------------

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// pattern returns the size bytes of the file whose content is keyed
// by key.
func pattern(key uint64, size int64) []byte {
	b := make([]byte, size)
	w := uint64(0)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], splitmix(key^splitmix(w)))
		w++
	}
	if rem := len(b) % 8; rem > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(key^splitmix(w)))
		copy(b[len(b)-rem:], tail[:rem])
	}
	return b
}

func seqKey(seed int64) uint64 { return splitmix(uint64(seed) ^ 0x5e9) }

func fileKey(seed int64, iter, file int) uint64 {
	return splitmix(uint64(seed)<<20 ^ uint64(iter)<<8 ^ uint64(file))
}

const seqFile = "seq.dat"

// put writes a file straight into the server's storage, as the paper
// preloads IOzone's file into server memory.
func (fx *fixture) put(name string, content []byte) error {
	h, _, err := fx.raw.Create(fx.raw.Root(), name, vfs.SetAttr{Mode: ptr(uint32(0644)), UID: ptr(uint32(1000)), GID: ptr(uint32(1000))}, false)
	if err == nil {
		err = fx.raw.Write(h, 0, content)
	}
	if err != nil {
		return fmt.Errorf("preload %s: %w", name, err)
	}
	return nil
}

func ptr[T any](v T) *T { return &v }

// dropFromServer removes files straight from the server's storage, to
// bound the memory a long run holds.
func (r *runner) dropFromServer(names []string) {
	for _, n := range names {
		if err := r.fx.raw.Remove(r.fx.raw.Root(), n); err != nil {
			r.fail(fmt.Errorf("drop %s from the server: %w", n, err))
		}
	}
}

// checkBackend compares a file in the server's storage with want.
func (r *runner) checkBackend(name string, want []byte) error {
	raw := r.fx.raw
	h, attr, err := raw.Lookup(raw.Root(), name)
	if err != nil {
		return fmt.Errorf("backend %s: %w", name, err)
	}
	if attr.Size != uint64(len(want)) {
		return fmt.Errorf("backend %s: size %d, wrote %d", name, attr.Size, len(want))
	}
	got := make([]byte, len(want))
	if n, _, err := raw.Read(h, 0, got); err != nil || n != len(want) {
		return fmt.Errorf("backend %s: read %d of %d bytes: %v", name, n, len(want), err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("backend %s: bytes differ from what was written", name)
	}
	return nil
}

// readPass reads the file in blockSize records as ops of kind,
// checking each record against want, the file's content.
func (r *runner) readPass(f bench.File, kind, name string, want []byte) {
	buf := make([]byte, blockSize)
	size := int64(len(want))
	for off := int64(0); off < size; off += blockSize {
		n := min(int64(blockSize), size-off)
		var got int
		if !r.op(kind, n, func(ctx context.Context) (err error) {
			got, err = f.ReadAt(ctx, buf[:n], off)
			return err
		}) {
			continue
		}
		if int64(got) != n || !bytes.Equal(buf[:n], want[off:off+n]) {
			r.fail(fmt.Errorf("%s %s at %d: read %d bytes that differ from the preload", kind, name, off, got))
		}
	}
}

// --- lan-seqread -------------------------------------------------------

// seqIteration is IOzone's read and reread of the preloaded file.
func seqIteration(r *runner, _ int) error {
	var f bench.File
	if !r.op("open", 0, func(ctx context.Context) (err error) {
		f, err = r.st.fs.Open(ctx, seqFile)
		return err
	}) {
		return nil
	}
	r.readPass(f, "read", seqFile, r.fx.seq)
	r.readPass(f, "reread", seqFile, r.fx.seq)
	r.op("close", 0, func(ctx context.Context) error { return f.Close(ctx) })
	return nil
}

// --- wan-bulk ----------------------------------------------------------

// bulkIteration writes fresh files and writes them back, then reads a
// cold preloaded file twice; the second pass is served by the client
// proxy's disk cache, since the file is 4x the page cache.
func bulkIteration(r *runner, iter int) error {
	cold := fmt.Sprintf("cold%03d.dat", iter)
	coldData := pattern(fileKey(r.seed, iter, 0xff), r.sc.BulkRead)
	// The cold file is preloaded now, before the iteration's first op,
	// and both it and the written files are dropped from the server
	// afterwards to bound memory.
	if err := r.fx.put(cold, coldData); err != nil {
		return err
	}
	created := []string{cold}
	defer func() { r.dropFromServer(created) }()

	written := make([][]byte, r.sc.BulkFiles)
	for i := range written {
		written[i] = pattern(fileKey(r.seed, iter, i), r.sc.BulkFileSize)
	}
	for i, data := range written {
		name := fmt.Sprintf("w%03d-%d.dat", iter, i)
		var f bench.File
		if !r.op("create", 0, func(ctx context.Context) (err error) {
			f, err = r.st.fs.Create(ctx, name)
			return err
		}) {
			continue
		}
		created = append(created, name)
		for off := int64(0); off < int64(len(data)); off += blockSize {
			n := min(int64(blockSize), int64(len(data))-off)
			r.op("write", n, func(ctx context.Context) error {
				got, err := f.WriteAt(ctx, data[off:off+n], off)
				if err == nil && int64(got) != n {
					err = fmt.Errorf("short write: %d of %d", got, n)
				}
				return err
			})
		}
		r.op("close", 0, func(ctx context.Context) error { return f.Close(ctx) })
	}
	if r.op("flush", 0, func(ctx context.Context) error { return r.st.flushAll(ctx, r.tr) }) {
		for i, data := range written {
			name := fmt.Sprintf("w%03d-%d.dat", iter, i)
			if err := r.checkBackend(name, data); err != nil {
				r.fail(fmt.Errorf("after flush: %w", err))
			}
		}
	}

	var f bench.File
	if !r.op("open", 0, func(ctx context.Context) (err error) {
		f, err = r.st.fs.Open(ctx, cold)
		return err
	}) {
		return nil
	}
	r.readPass(f, "read", cold, coldData)
	r.readPass(f, "reread", cold, coldData)
	r.op("close", 0, func(ctx context.Context) error { return f.Close(ctx) })
	return nil
}

// --- wan-postmark ------------------------------------------------------

// pmFile is a live PostMark file: its path and the lengths of the
// segments written to it, each a prefix of the iteration's data.
type pmFile struct {
	path string
	segs []int
}

func (p *pmFile) size() int {
	n := 0
	for _, s := range p.segs {
		n += s
	}
	return n
}

func (p *pmFile) content(data []byte) []byte {
	out := make([]byte, 0, p.size())
	for _, s := range p.segs {
		out = append(out, data[:s]...)
	}
	return out
}

// postmarkIteration is one PostMark run in its own directory pool:
// create the pool and files, run transactions (create or delete, read
// or append), delete everything, and check the server tree is empty.
func postmarkIteration(r *runner, iter int) error {
	const minSize, maxSize = 512, 16 * 1024
	rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(iter)))
	data := make([]byte, maxSize)
	rng.Read(data)
	size := func() int { return minSize + rng.Intn(maxSize-minSize+1) }
	root := fmt.Sprintf("pm%03d", iter)

	if !r.op("mkdir", 0, func(ctx context.Context) error { return r.st.fs.Mkdir(ctx, root) }) {
		return nil
	}
	dirs := make([]string, r.sc.PMDirs)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("%s/d%02d", root, i)
		r.op("mkdir", 0, func(ctx context.Context) error { return r.st.fs.Mkdir(ctx, dirs[i]) })
	}

	var live []*pmFile
	next := 0
	create := func() {
		p := &pmFile{path: fmt.Sprintf("%s/f%05d", dirs[rng.Intn(len(dirs))], next), segs: []int{size()}}
		next++
		if r.op("create", int64(p.segs[0]), func(ctx context.Context) error {
			f, err := r.st.fs.Create(ctx, p.path)
			if err != nil {
				return err
			}
			_, err = f.WriteAt(ctx, data[:p.segs[0]], 0)
			return errors.Join(err, f.Close(ctx))
		}) {
			live = append(live, p)
		}
	}
	remove := func(i int) {
		p := live[i]
		live = append(live[:i], live[i+1:]...)
		r.op("delete", 0, func(ctx context.Context) error { return r.st.fs.Remove(ctx, p.path) })
	}
	for i := 0; i < r.sc.PMFiles; i++ {
		create()
	}

	// PostMark picks each transaction type with equal probability; the
	// run uses exactly equal shares in seeded order, so a run's cost
	// does not depend on how the coin flips fell.
	const txCreate, txDelete, txRead, txAppend = 0, 1, 2, 3
	txs := make([]int, r.sc.PMTx)
	for i := range txs {
		txs[i] = i % 4
	}
	rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })

	buf := make([]byte, 2*maxSize)
	for _, tx := range txs {
		if tx == txCreate || len(live) == 0 {
			create()
			continue
		}
		if tx == txDelete {
			remove(rng.Intn(len(live)))
			continue
		}
		p := live[rng.Intn(len(live))]
		if tx == txRead {
			n := p.size()
			if n > len(buf) {
				buf = make([]byte, n)
			}
			var got int
			if r.op("read", int64(n), func(ctx context.Context) error {
				f, err := r.st.fs.Open(ctx, p.path)
				if err != nil {
					return err
				}
				for got < n && err == nil {
					var k int
					k, err = f.ReadAt(ctx, buf[got:min(n, got+maxSize)], int64(got))
					got += k
				}
				return errors.Join(err, f.Close(ctx))
			}) && !bytes.Equal(buf[:got], p.content(data)) {
				r.fail(fmt.Errorf("read %s: %d bytes differ from what was written", p.path, got))
			}
			continue
		}
		n := size()
		if r.op("append", int64(n), func(ctx context.Context) error {
			f, err := r.st.fs.Open(ctx, p.path)
			if err != nil {
				return err
			}
			_, err = f.WriteAt(ctx, data[:n], int64(p.size()))
			return errors.Join(err, f.Close(ctx))
		}) {
			p.segs = append(p.segs, n)
		}
	}

	for len(live) > 0 {
		remove(len(live) - 1)
	}
	for _, d := range dirs {
		r.op("rmdir", 0, func(ctx context.Context) error { return r.st.fs.Rmdir(ctx, d) })
	}
	r.op("rmdir", 0, func(ctx context.Context) error { return r.st.fs.Rmdir(ctx, root) })
	if _, _, err := r.fx.raw.Lookup(r.fx.raw.Root(), root); !errors.Is(err, vfs.ErrNoEnt) {
		r.fail(fmt.Errorf("postmark %s: tree not empty on the server after deletion (lookup: %v)", root, err))
	}
	return nil
}
