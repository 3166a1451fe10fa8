package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/netem"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/proxy"
	"repro/internal/securechan"
	"repro/internal/vfs"
)

// The stacks the workloads run on, named as in the paper's Figure 4.
const (
	stackSHA = "sgfs-sha" // NULL cipher + HMAC-SHA1
	stackAES = "sgfs-aes" // AES-256 + HMAC-SHA1
	stackGFS = "gfs"      // the same proxies without a secure channel
)

const (
	exportPath = "/GFS/bench"
	blockSize  = 32 * 1024
	// diskCacheBytes bounds the client proxy's disk cache; it holds a
	// whole run's data, so nothing is evicted.
	diskCacheBytes = 1 << 30
)

// stackConfig selects one deployment.
type stackConfig struct {
	kind      string
	rtt       time.Duration // emulated RTT between the proxies
	diskCache bool          // client proxy disk cache (the paper's WAN setup)
	pageCache int64         // nfsclient page cache bytes
	backend   vfs.FS        // server storage, as the NFS server sees it
	workDir   string        // where the disk cache lives
	tr        *tracer       // nil: no taps
}

// stack is an assembled deployment:
//
//	workload -> nfsclient -hop1-> client proxy =WAN=> server proxy -hop2-> nfs3 -> vfs
//
// Every hop is loopback TCP. With a tracer, each boundary is tapped
// from outside: the workload's FS calls, the connections the dialers
// hand out, and the backend the NFS server is given. Each proxy and
// each side of the secure channel has its own Meter.
type stack struct {
	fs  bench.FS
	nfs *nfsclient.FileSystem
	cp  *proxy.ClientProxy
	sp  *proxy.ServerProxy
	dc  *cache.DiskCache

	hop1, hop2 *rpcTap
	wan        *wanTap

	clientMeter, serverMeter *metrics.Meter // proxy work, less upstream waits
	chanClient, chanServer   *metrics.Meter // record seal/open

	closers []func() error
}

func (s *stack) onClose(f func() error) { s.closers = append(s.closers, f) }

// close tears the stack down, newest component first. The client
// proxy's Close writes back any dirty blocks, so its error matters.
func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func dialTo(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// buildStack assembles cfg's deployment from the public constructors
// and mounts it. Its duration is the benchmark's set-up time.
func buildStack(cfg stackConfig) (_ *stack, err error) {
	st := &stack{
		clientMeter: &metrics.Meter{}, serverMeter: &metrics.Meter{},
		chanClient: &metrics.Meter{}, chanServer: &metrics.Meter{},
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()

	// The NFS server and mount daemon the server proxy fronts.
	rpc := oncrpc.NewServer()
	nfs3.NewServer(cfg.backend, 1).Register(rpc)
	md := mountd.NewServer()
	md.AddExport(&mountd.Export{Path: exportPath, FS: cfg.backend, AllowedHosts: []string{"127.0.0.1"}})
	md.Register(rpc)
	nfsL, err := listen()
	if err != nil {
		return nil, err
	}
	go rpc.Serve(nfsL)
	st.onClose(func() error { rpc.Close(); return nil })

	// Grid identities and the server proxy.
	ca, err := gridsec.NewCA("Bench Grid")
	if err != nil {
		return nil, err
	}
	user, err := ca.IssueUser("bench-user")
	if err != nil {
		return nil, err
	}
	host, err := ca.IssueHost("bench-server")
	if err != nil {
		return nil, err
	}
	accounts := idmap.NewTable()
	accounts.Add(idmap.Account{Name: "bench", UID: 1000, GID: 1000})
	var chanServer, chanClient *securechan.Config
	var gmap *gridmap.Map
	switch cfg.kind {
	case stackSHA, stackAES:
		suite := securechan.SuiteNullSHA1
		if cfg.kind == stackAES {
			suite = securechan.SuiteAES256SHA1
		}
		chanServer = &securechan.Config{Credential: host, Roots: ca.Pool(), Suites: []securechan.Suite{suite}, Meter: st.chanServer}
		chanClient = &securechan.Config{Credential: user, Roots: ca.Pool(), Suites: []securechan.Suite{suite}, Meter: st.chanClient}
		gmap = gridmap.New(gridmap.Deny)
		gmap.Add(user.DN(), "bench")
	case stackGFS:
		// No channel security: all traffic maps to the bench account.
		accounts.Add(idmap.Account{Name: "nobody", UID: 1000, GID: 1000})
	default:
		return nil, fmt.Errorf("unknown stack %q", cfg.kind)
	}

	upstream := dialTo(nfsL.Addr().String())
	if cfg.tr != nil {
		st.hop2 = newRPCTap(cfg.tr, layerNFS3)
		upstream = st.hop2.dialer(upstream)
	}
	sp, err := proxy.NewServerProxy(proxy.ServerConfig{
		UpstreamDial: upstream,
		ExportPath:   exportPath,
		Channel:      chanServer,
		Gridmap:      gmap,
		Accounts:     accounts,
		Meter:        st.serverMeter,
	})
	if err != nil {
		return nil, fmt.Errorf("server proxy: %w", err)
	}
	st.sp = sp
	st.onClose(func() error { sp.Close(); return nil })
	spL, err := listen()
	if err != nil {
		return nil, err
	}
	go sp.Serve(spL)

	// The client proxy reaches the server proxy over the emulated WAN.
	serverDial := netem.Dialer(dialTo(spL.Addr().String()), netem.Config{RTT: cfg.rtt})
	if cfg.tr != nil {
		st.wan = newWANTap(cfg.tr, cfg.rtt, chanClient != nil)
		serverDial = st.wan.dialer(serverDial)
	}
	ccfg := proxy.ClientConfig{
		ServerDial: serverDial,
		Channel:    chanClient,
		ExportPath: exportPath,
		Meter:      st.clientMeter,
	}
	if cfg.diskCache {
		dir, err := os.MkdirTemp(cfg.workDir, "diskcache-*")
		if err != nil {
			return nil, err
		}
		st.onClose(func() error { return os.RemoveAll(dir) })
		dc, err := cache.New(dir, blockSize, diskCacheBytes)
		if err != nil {
			return nil, err
		}
		st.onClose(dc.Close)
		st.dc, ccfg.DiskCache = dc, dc
	}
	cp, err := proxy.NewClientProxy(ccfg)
	if err != nil {
		return nil, fmt.Errorf("client proxy: %w", err)
	}
	st.cp = cp
	st.onClose(cp.Close)
	cpL, err := listen()
	if err != nil {
		return nil, err
	}
	go cp.Serve(cpL)

	// The NFS client mounts the client proxy as if it were the server.
	mountDial := nfsclient.Dialer(dialTo(cpL.Addr().String()))
	if cfg.tr != nil {
		st.hop1 = newRPCTap(cfg.tr, layerHop1)
		mountDial = st.hop1.dialer(mountDial)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	nfs, err := nfsclient.Mount(ctx, mountDial, exportPath, nfsclient.Options{
		BlockSize:  blockSize,
		CacheBytes: cfg.pageCache,
		UID:        1000, GID: 1000,
	})
	if err != nil {
		return nil, fmt.Errorf("mount: %w", err)
	}
	st.nfs = nfs
	st.onClose(nfs.Close)
	st.fs = bench.V3FS{FS: st.nfs}
	if cfg.tr != nil {
		st.fs = fsTap{inner: st.fs, tr: cfg.tr}
	}
	return st, nil
}

// flushAll writes the client proxy's dirty blocks back, as a call
// from the workload into the client proxy.
func (s *stack) flushAll(ctx context.Context, tr *tracer) error {
	if tr == nil {
		return s.cp.FlushAll(ctx)
	}
	start := tr.now()
	defer tr.add(layerProxy, "FlushAll", start)
	return s.cp.FlushAll(ctx)
}
