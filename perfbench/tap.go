package main

import (
	"context"
	"encoding/binary"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/vfs"
)

// Layer names, shared by spans, metrics and the layer map.
const (
	layerOp        = "op"
	layerNFSClient = "nfsclient"
	layerProxy     = "proxy.client.flush"
	layerHop1      = "oncrpc.hop1"
	layerNetem     = "netem"
	layerNFS3      = "nfs3"
	layerVFS       = "vfs"
)

// layerChildren names the layers each traced layer calls into. A
// layer's self time is its span time less the time its child layers'
// spans cover (see attribute).
var layerChildren = map[string][]string{
	layerOp:        {layerNFSClient, layerProxy}, // FlushAll: the benchmark calls the client proxy directly
	layerNFSClient: {layerHop1},
	layerProxy:     {layerNetem},
	layerHop1:      {layerNetem},
	layerNetem:     {layerNFS3},
	layerNFS3:      {layerVFS},
	layerVFS:       nil,
}

// layerParents inverts layerChildren.
var layerParents = func() map[string][]string {
	m := map[string][]string{}
	for p, cs := range layerChildren {
		for _, c := range cs {
			m[c] = append(m[c], p)
		}
	}
	return m
}()

// spanLayers are the layers whose spans are recorded, from the
// workload down to the backend.
var spanLayers = []string{layerOp, layerNFSClient, layerProxy, layerHop1, layerNetem, layerNFS3, layerVFS}

// span is one call across a layer boundary. Times are nanoseconds
// since the tracer started. Spans of one workload op share op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; later spans are counted but
// not kept.
const maxSpans = 4 << 20

// tracer keeps spans in memory until the run ends. Spans are
// recorded from outside each layer, so ids, parents and op ids are
// assigned afterwards from timing (see finish).
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span of layer that started at start and ends now.
func (t *tracer) add(layer, name string, start int64) {
	t.addSpan(layer, name, start, t.now())
}

func (t *tracer) addSpan(layer, name string, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Layer: layer, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// finish sorts the spans by start, numbers them, and links each to the
// workload op that most recently started before it, and to its parent:
// the most recently started span of a calling layer that is still open
// when it starts, else of a layer above that, else its op. It returns
// the spans and how many were not kept.
func (t *tracer) finish() ([]span, uint64) {
	t.mu.Lock()
	spans, dropped := t.spans, t.dropped
	t.spans, t.dropped = nil, 0
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	last := map[string]*span{}
	for i := range spans {
		s := &spans[i]
		s.ID = uint64(i + 1)
		if op := last[layerOp]; op != nil {
			s.Op = op.ID
		}
		if s.Layer == layerOp {
			s.Op = s.ID
		} else {
			// Without an open caller it is background work started
			// between ops, such as readahead.
			s.Parent = s.Op
			for up := layerParents[s.Layer]; len(up) > 0; {
				var best *span
				var next []string
				for _, l := range up {
					if p := last[l]; p != nil && p.End >= s.Start && (best == nil || p.Start > best.Start) {
						best = p
					}
					next = append(next, layerParents[l]...)
				}
				if best != nil {
					s.Parent = best.ID
					break
				}
				up = next
			}
		}
		last[s.Layer] = s
	}
	return spans, dropped
}

// --- ONC-RPC record stream parsing -----------------------------------

// recordParser follows an ONC-RPC record-marked byte stream and
// reports each message's xid when the message starts and when its
// last byte has passed.
type recordParser struct {
	hdr      [4]byte
	hdrN     int
	need     uint32 // bytes left in the current fragment
	last     bool   // current fragment ends its message
	inMsg    bool   // a message has started and not ended
	xid      [4]byte
	xidN     int
	haveXID  bool
	inFrag   bool
	msgCount uint64
}

// feed consumes p. onStart runs when a message's xid is complete,
// onEnd when the message's last byte is consumed.
func (r *recordParser) feed(p []byte, onStart, onEnd func(xid uint32)) {
	for len(p) > 0 {
		if !r.inFrag {
			k := copy(r.hdr[r.hdrN:], p)
			r.hdrN += k
			p = p[k:]
			if r.hdrN < 4 {
				return
			}
			r.hdrN = 0
			v := binary.BigEndian.Uint32(r.hdr[:])
			r.need = v &^ (1 << 31)
			r.last = v&(1<<31) != 0
			r.inFrag = true
			if !r.inMsg {
				r.inMsg = true
				r.xidN = 0
				r.haveXID = false
			}
		}
		if !r.haveXID && r.need > 0 {
			k := len(p)
			if k > 4-r.xidN {
				k = 4 - r.xidN
			}
			if uint32(k) > r.need {
				k = int(r.need)
			}
			copy(r.xid[r.xidN:], p[:k])
			r.xidN += k
			r.need -= uint32(k)
			p = p[k:]
			if r.xidN == 4 {
				r.haveXID = true
				if onStart != nil {
					onStart(binary.BigEndian.Uint32(r.xid[:]))
				}
			}
		}
		k := uint32(len(p))
		if k > r.need {
			k = r.need
		}
		r.need -= k
		p = p[k:]
		if r.need == 0 {
			r.inFrag = false
			if r.last {
				r.inMsg = false
				r.msgCount++
				if onEnd != nil && r.haveXID {
					onEnd(binary.BigEndian.Uint32(r.xid[:]))
				}
			}
		}
	}
}

// --- plaintext ONC-RPC hop -------------------------------------------

// rpcTap measures one plaintext ONC-RPC hop from its client side: it
// pairs each call with its reply by xid, records a span per call, and
// keeps the in-flight high-water mark.
type rpcTap struct {
	tr    *tracer
	layer string

	mu       sync.Mutex
	pending  map[uint64]int64 // conn<<32 | xid -> call start
	inflight int
	hwm      int
	nextConn uint64
}

func newRPCTap(tr *tracer, layer string) *rpcTap {
	return &rpcTap{tr: tr, layer: layer, pending: make(map[uint64]int64)}
}

// dialer wraps every connection dial returns.
func (t *rpcTap) dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		t.nextConn++
		id := t.nextConn
		t.mu.Unlock()
		return &rpcConn{Conn: c, tap: t, id: id}, nil
	}
}

func (t *rpcTap) callStarted(conn uint64, xid uint32) {
	now := t.tr.now()
	t.mu.Lock()
	t.pending[conn<<32|uint64(xid)] = now
	t.inflight++
	if t.inflight > t.hwm {
		t.hwm = t.inflight
	}
	t.mu.Unlock()
}

func (t *rpcTap) replied(conn uint64, xid uint32) {
	key := conn<<32 | uint64(xid)
	t.mu.Lock()
	start, ok := t.pending[key]
	if ok {
		delete(t.pending, key)
		t.inflight--
	}
	t.mu.Unlock()
	if ok {
		t.tr.add(t.layer, "call", start)
	}
}

// takeHWM returns the in-flight high-water mark since the last call
// and restarts it from the calls now in flight.
func (t *rpcTap) takeHWM() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	hwm := t.hwm
	t.hwm = t.inflight
	return hwm
}

type rpcConn struct {
	net.Conn
	tap      *rpcTap
	id       uint64
	wmu, rmu sync.Mutex
	out, in  recordParser
}

// Write registers the calls in p before they leave, so a fast reply
// always finds its call.
func (c *rpcConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	c.out.feed(p, func(xid uint32) { c.tap.callStarted(c.id, xid) }, nil)
	c.wmu.Unlock()
	return c.Conn.Write(p)
}

func (c *rpcConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rmu.Lock()
		c.in.feed(p[:n], nil, func(xid uint32) { c.tap.replied(c.id, xid) })
		c.rmu.Unlock()
	}
	return n, err
}

// --- WAN hop ---------------------------------------------------------

// wanTap measures the emulated WAN link between the proxies. Its
// traffic is sealed on the SGFS stacks, so it cannot pair calls with
// replies. It counts bytes each way and round trips: a send opens a
// new round trip when the previous one opened at least one RTT
// earlier. A span runs from a send to the last arrival before the
// next send. Messages are counted from the framing: securechan frames
// carry each RPC record mark in its own (smallest) data record, and
// plaintext links carry record marks directly.
type wanTap struct {
	tr     *tracer
	rtt    int64
	secure bool

	mu         sync.Mutex
	bytesUp    uint64
	bytesDown  uint64
	roundTrips uint64
	lastTrip   int64
	haveTrip   bool
	frameSizes map[uint32]uint64 // data frame body length -> count
	rpcMsgs    uint64
	conns      []*wanConn
}

func newWANTap(tr *tracer, rtt time.Duration, secure bool) *wanTap {
	return &wanTap{tr: tr, rtt: int64(rtt), secure: secure, frameSizes: make(map[uint32]uint64)}
}

func (t *wanTap) dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		wc := &wanConn{Conn: c, tap: t}
		t.mu.Lock()
		t.conns = append(t.conns, wc)
		t.mu.Unlock()
		return wc, nil
	}
}

// closeSpans ends every connection's open exchange.
func (t *wanTap) closeSpans() {
	t.mu.Lock()
	conns := t.conns
	t.mu.Unlock()
	for _, c := range conns {
		c.closeSpan()
	}
}

type wanSnapshot struct {
	bytesUp, bytesDown, roundTrips, msgsUp uint64
}

func (t *wanTap) take() wanSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := wanSnapshot{bytesUp: t.bytesUp, bytesDown: t.bytesDown, roundTrips: t.roundTrips, msgsUp: t.rpcMsgs}
	if t.secure {
		// The smallest data frame is the sealed 4-byte record mark.
		var min uint32
		for n := range t.frameSizes {
			if min == 0 || n < min {
				min = n
			}
		}
		s.msgsUp = t.frameSizes[min]
		t.frameSizes = make(map[uint32]uint64)
	}
	t.bytesUp, t.bytesDown, t.roundTrips, t.rpcMsgs = 0, 0, 0, 0
	return s
}

type wanConn struct {
	net.Conn
	tap *wanTap

	wmu      sync.Mutex
	frameHdr [5]byte
	frameN   int
	skip     uint32
	rpc      recordParser

	smu       sync.Mutex
	spanOpen  bool
	spanStart int64
	lastRead  int64
	readSince bool
}

// countFrames follows the securechan framing [type u8 | len u32 | body].
func (c *wanConn) countFrames(p []byte) {
	const recData = 2
	for len(p) > 0 {
		if c.skip > 0 {
			k := uint32(len(p))
			if k > c.skip {
				k = c.skip
			}
			c.skip -= k
			p = p[k:]
			continue
		}
		k := copy(c.frameHdr[c.frameN:], p)
		c.frameN += k
		p = p[k:]
		if c.frameN < 5 {
			return
		}
		c.frameN = 0
		n := binary.BigEndian.Uint32(c.frameHdr[1:])
		if c.frameHdr[0] == recData {
			c.tap.frameSizes[n]++
		}
		c.skip = n
	}
}

func (c *wanConn) Write(p []byte) (int, error) {
	now := c.tap.tr.now()
	c.smu.Lock()
	if c.spanOpen && c.readSince {
		c.tap.tr.addSpan(layerNetem, "exchange", c.spanStart, c.lastRead)
		c.spanOpen = false
	}
	if !c.spanOpen {
		c.spanOpen, c.spanStart, c.readSince = true, now, false
	}
	c.smu.Unlock()

	c.wmu.Lock()
	c.tap.mu.Lock()
	c.tap.bytesUp += uint64(len(p))
	if !c.tap.haveTrip || now-c.tap.lastTrip >= c.tap.rtt {
		c.tap.roundTrips++
		c.tap.lastTrip, c.tap.haveTrip = now, true
	}
	if c.tap.secure {
		c.countFrames(p)
	} else {
		before := c.rpc.msgCount
		c.rpc.feed(p, nil, nil)
		c.tap.rpcMsgs += c.rpc.msgCount - before
	}
	c.tap.mu.Unlock()
	c.wmu.Unlock()
	return c.Conn.Write(p)
}

func (c *wanConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.tap.mu.Lock()
		c.tap.bytesDown += uint64(n)
		c.tap.mu.Unlock()
		c.smu.Lock()
		c.readSince = true
		c.lastRead = c.tap.tr.now()
		c.smu.Unlock()
	}
	return n, err
}

// closeSpan ends the exchange still open at the end of a run at its
// last arrival.
func (c *wanConn) closeSpan() {
	c.smu.Lock()
	defer c.smu.Unlock()
	if c.spanOpen && c.readSince {
		c.tap.tr.addSpan(layerNetem, "exchange", c.spanStart, c.lastRead)
	}
	c.spanOpen = false
}

// --- backend storage -------------------------------------------------

// vfsTap is a vfs.FS decorator that records one span per backend call
// and counts bytes written.
type vfsTap struct {
	inner   vfs.FS
	tr      *tracer
	written atomic.Uint64
}

func (f *vfsTap) Root() vfs.Handle { return f.inner.Root() }

func (f *vfsTap) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "GetAttr", s)
	return f.inner.GetAttr(h)
}

func (f *vfsTap) SetAttr(h vfs.Handle, a vfs.SetAttr) (vfs.Attr, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "SetAttr", s)
	return f.inner.SetAttr(h, a)
}

func (f *vfsTap) Lookup(dir vfs.Handle, name string) (vfs.Handle, vfs.Attr, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Lookup", s)
	return f.inner.Lookup(dir, name)
}

func (f *vfsTap) ReadLink(h vfs.Handle) (string, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "ReadLink", s)
	return f.inner.ReadLink(h)
}

func (f *vfsTap) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Read", s)
	return f.inner.Read(h, off, buf)
}

func (f *vfsTap) Write(h vfs.Handle, off uint64, data []byte) error {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Write", s)
	f.written.Add(uint64(len(data)))
	return f.inner.Write(h, off, data)
}

func (f *vfsTap) Create(dir vfs.Handle, name string, a vfs.SetAttr, excl bool) (vfs.Handle, vfs.Attr, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Create", s)
	return f.inner.Create(dir, name, a, excl)
}

func (f *vfsTap) Mkdir(dir vfs.Handle, name string, a vfs.SetAttr) (vfs.Handle, vfs.Attr, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Mkdir", s)
	return f.inner.Mkdir(dir, name, a)
}

func (f *vfsTap) Symlink(dir vfs.Handle, name, target string, a vfs.SetAttr) (vfs.Handle, vfs.Attr, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Symlink", s)
	return f.inner.Symlink(dir, name, target, a)
}

func (f *vfsTap) Remove(dir vfs.Handle, name string) error {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Remove", s)
	return f.inner.Remove(dir, name)
}

func (f *vfsTap) Rmdir(dir vfs.Handle, name string) error {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Rmdir", s)
	return f.inner.Rmdir(dir, name)
}

func (f *vfsTap) Rename(fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Rename", s)
	return f.inner.Rename(fromDir, fromName, toDir, toName)
}

func (f *vfsTap) Link(h, dir vfs.Handle, name string) error {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Link", s)
	return f.inner.Link(h, dir, name)
}

func (f *vfsTap) ReadDir(dir vfs.Handle, cookie uint64, count int) ([]vfs.DirEntry, bool, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "ReadDir", s)
	return f.inner.ReadDir(dir, cookie, count)
}

func (f *vfsTap) FSStat(h vfs.Handle) (vfs.FSStat, error) {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "FSStat", s)
	return f.inner.FSStat(h)
}

func (f *vfsTap) Commit(h vfs.Handle) error {
	s := f.tr.now()
	defer f.tr.add(layerVFS, "Commit", s)
	return f.inner.Commit(h)
}

// --- workload-facing file system -------------------------------------

// fsTap is a bench.FS decorator that records one nfsclient span per
// call the workload makes.
type fsTap struct {
	inner bench.FS
	tr    *tracer
}

func (f fsTap) Create(ctx context.Context, path string) (bench.File, error) {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Create", s)
	file, err := f.inner.Create(ctx, path)
	if err != nil {
		return nil, err
	}
	return fileTap{file, f.tr}, nil
}

func (f fsTap) Open(ctx context.Context, path string) (bench.File, error) {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Open", s)
	file, err := f.inner.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	return fileTap{file, f.tr}, nil
}

func (f fsTap) Stat(ctx context.Context, path string) (uint64, bool, error) {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Stat", s)
	return f.inner.Stat(ctx, path)
}

func (f fsTap) Mkdir(ctx context.Context, path string) error {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Mkdir", s)
	return f.inner.Mkdir(ctx, path)
}

func (f fsTap) Remove(ctx context.Context, path string) error {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Remove", s)
	return f.inner.Remove(ctx, path)
}

func (f fsTap) Rmdir(ctx context.Context, path string) error {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Rmdir", s)
	return f.inner.Rmdir(ctx, path)
}

func (f fsTap) Rename(ctx context.Context, oldPath, newPath string) error {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Rename", s)
	return f.inner.Rename(ctx, oldPath, newPath)
}

func (f fsTap) ReadDir(ctx context.Context, path string) ([]string, error) {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "ReadDir", s)
	return f.inner.ReadDir(ctx, path)
}

type fileTap struct {
	inner bench.File
	tr    *tracer
}

func (f fileTap) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "ReadAt", s)
	return f.inner.ReadAt(ctx, p, off)
}

func (f fileTap) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "WriteAt", s)
	return f.inner.WriteAt(ctx, p, off)
}

func (f fileTap) Size() int64 { return f.inner.Size() }

func (f fileTap) Close(ctx context.Context) error {
	s := f.tr.now()
	defer f.tr.add(layerNFSClient, "Close", s)
	return f.inner.Close(ctx)
}
