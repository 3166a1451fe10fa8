package oncrpc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/xdr"
)

// ErrInFlight is returned by Pending.Err while the call has not yet
// completed.
var ErrInFlight = errors.New("oncrpc: call still in flight")

// Pending states. A future starts in flight and settles exactly once:
// the readLoop's delivery, the transport teardown, and a caller's
// Cancel race for the transition with a CAS, and only the winner may
// touch the future's pooled call state.
const (
	pendingInflight uint32 = iota
	pendingDone
	pendingCancelled
)

// Pending is the future for one asynchronous call issued with Go,
// GoCred or GoFunc: the reply is decoded into the caller's reply value
// before Done is closed, so Done means "result ready", not "result
// scheduled". Many Pendings may be in flight on one Client at once,
// completing out of order as the server answers.
//
// A Pending is settled exactly once — by reply delivery, transport
// failure, or Cancel. Until Done is closed the reply value belongs to
// the client and must not be read.
type Pending struct {
	done chan struct{}
	err  error // written once by the settling goroutine before close(done)

	// Direct (Client.Go) futures: the pending-table key, the pooled
	// per-call scratch shared by the submitting GoCred and the future,
	// and the caller's reply target.
	c        *Client
	xid      uint32
	cb       *callBufs
	cbRefs   atomic.Int32 // owners of cb; the last to let go recycles it
	reply    xdr.Unmarshaler
	windowed bool // holds a pipeline-window slot until settled
	state    atomic.Uint32

	// Goroutine-driven (GoFunc) futures: cancelFn aborts the driving
	// goroutine, which settles the future itself.
	cancelFn context.CancelFunc
}

// Done returns a channel closed when the call has completed, failed,
// or been cancelled. Err then reports the outcome.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Err returns the call's outcome: nil for success, the RPC or
// transport error otherwise, context.Canceled after Cancel, and
// ErrInFlight while the call is still outstanding.
func (p *Pending) Err() error {
	select {
	case <-p.done:
		return p.err
	default:
		return ErrInFlight
	}
}

// Wait blocks until the call settles or ctx is done. When ctx fires
// first the call is cancelled; Wait still returns the call's real
// outcome if delivery won the race, so a nil return always means the
// reply value is valid.
func (p *Pending) Wait(ctx context.Context) error {
	select {
	case <-p.done:
		return p.err
	case <-ctx.Done():
		p.Cancel()
		<-p.done // Cancel guarantees prompt settlement
		if errors.Is(p.err, context.Canceled) {
			return ctx.Err()
		}
		return p.err
	}
}

// Cancel abandons the call. The RPC may still execute on the server —
// cancellation only stops waiting for (and decoding) the reply. After
// Cancel returns, Done closes promptly; if the reply had already been
// delivered, the call settles with its real outcome instead.
func (p *Pending) Cancel() {
	if p.cancelFn != nil {
		p.cancelFn() // GoFunc future: the driving goroutine settles it
		return
	}
	if p.c == nil {
		return // settled at submission; nothing in flight
	}
	// Remove the pending entry (or learn that the readLoop/teardown
	// already claimed it — the CAS below then decides who settles).
	p.c.abandonPending(p.xid)
	if !p.state.CompareAndSwap(pendingInflight, pendingCancelled) {
		return // delivery or teardown won: the call completed
	}
	p.err = context.Canceled
	p.settle()
}

// settle recycles the pooled call state, releases the window slot,
// and publishes the outcome. Only the goroutine that won the state
// CAS may call it, exactly once.
func (p *Pending) settle() {
	if cb := p.cb; cb != nil {
		// A losing deliver() never touches the callBufs, so releasing
		// here is safe even when a late record is still in flight.
		p.cb = nil
		p.releaseBufs(cb)
	}
	if p.windowed {
		<-p.c.window
	}
	close(p.done)
}

// releaseBufs drops one owner of the future's callBufs: GoCred holds
// one until its record write returns, the future one until it settles.
// A transport teardown can settle the future while GoCred is still
// writing, so whichever finishes last recycles the buffers.
func (p *Pending) releaseBufs(cb *callBufs) {
	if p.cbRefs.Add(-1) == 0 {
		callBufPool.Put(cb)
	}
}

// settleEarly fails a future that never reached the pending table
// (encode error, dead client, pre-submission cancellation). The
// future is not yet shared with any other goroutine, so plain stores
// suffice.
func (p *Pending) settleEarly(err error) *Pending {
	p.state.Store(pendingDone)
	p.err = err
	p.settle()
	return p
}

// deliver decodes a claimed reply record into the future. It runs on
// the client's readLoop; see Client.readLoop for why decoding happens
// there. If a canceller won the settlement race the record is dropped
// — touching the future's pooled state would race with its recycling.
//
//sgfsvet:hot-path
func (p *Pending) deliver(bp *[]byte) {
	if !p.state.CompareAndSwap(pendingInflight, pendingDone) {
		recPut(bp)
		return
	}
	cb := p.cb
	cb.rbuf.SetBytes(*bp)
	cb.dec.Reset(&cb.rbuf)
	err := decodeReplyFrom(&cb.dec, p.reply)
	// The decoder copies everything out of the record, so it recycles
	// as soon as decoding ends.
	recPut(bp)
	cb.rbuf.SetBytes(nil)
	p.err = err
	p.settle()
}

// deliverErr settles the future with err (transport teardown, write
// failure). CAS-guarded like deliver: a concurrent Cancel or fail may
// already have settled it.
func (p *Pending) deliverErr(err error) {
	if !p.state.CompareAndSwap(pendingInflight, pendingDone) {
		return
	}
	p.err = err
	p.settle()
}

// GoFunc runs fn on its own goroutine and returns a future that
// settles with fn's result. It gives a future face to calls that are
// not one RPC on one connection — a reconnect-and-replay loop, a
// replicated fan-out. Cancel cancels the context fn receives; Wait
// and Done then follow fn's return, so fn must honour its context.
func GoFunc(ctx context.Context, fn func(ctx context.Context) error) *Pending {
	ctx, cancel := context.WithCancel(ctx)
	p := &Pending{done: make(chan struct{}), cancelFn: cancel}
	go func() {
		defer cancel()
		p.err = fn(ctx)
		close(p.done)
	}()
	return p
}

// Go issues proc asynchronously with the default credential and
// returns its future. See GoCred.
func (c *Client) Go(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) *Pending {
	return c.GoCred(ctx, proc, c.defaultCred(), args, reply)
}

// GoCred issues an RPC asynchronously with an explicit credential and
// returns immediately with its future. The call joins the connection's
// pipeline: many futures may be outstanding at once and complete out
// of order. When the client was built with a bounded window
// (NewClientWindow) and the window is full, GoCred blocks for a free
// slot — that backpressure is what keeps a metadata storm from
// buffering unbounded reply state. ctx bounds only the submission
// (window wait); use Wait, or Cancel with Done, to bound completion.
//
// The reply value must not be read until Done is closed, and args must
// not be mutated until then either (its encoding completes before
// GoCred returns, but reconnect-layer futures may re-encode on replay).
//
//sgfsvet:hot-path
func (c *Client) GoCred(ctx context.Context, proc uint32, cred OpaqueAuth, args xdr.Marshaler, reply xdr.Unmarshaler) *Pending {
	p := &Pending{done: make(chan struct{}), c: c, reply: reply}
	if c.window != nil {
		select {
		case c.window <- struct{}{}:
		default:
			// Window full: count the stall, then wait for a slot.
			if s := c.stats.Load(); s != nil {
				s.WindowStalls.Add(1)
			}
			select {
			case c.window <- struct{}{}:
			case <-ctx.Done():
				return p.settleEarly(ctx.Err())
			case <-c.done:
				return p.settleEarly(c.Err())
			}
		}
		p.windowed = true
	}

	xid := c.xid.Add(1)
	cb := callBufPool.Get().(*callBufs)
	cb.body.Reset()
	cb.enc.Reset(&cb.body)
	hdr := callHeader{XID: xid, Prog: c.prog, Vers: c.vers, Proc: proc, Cred: cred, Verf: AuthNone}
	hdr.EncodeXDR(&cb.enc)
	if args != nil {
		args.EncodeXDR(&cb.enc)
	}
	if err := cb.enc.Err(); err != nil {
		callBufPool.Put(cb)
		return p.settleEarly(fmt.Errorf("oncrpc: encode call: %w", err))
	}

	p.xid = xid
	p.cb = cb
	p.cbRefs.Store(2)
	if err := c.registerPending(xid, p); err != nil {
		p.cb = nil
		callBufPool.Put(cb)
		return p.settleEarly(err)
	}

	c.writeMu.Lock()
	err := writeRecord(c.conn, cb.body.Bytes(), &cb.whdr)
	c.writeMu.Unlock()
	p.releaseBufs(cb)
	if err != nil {
		// Remove our entry if teardown has not already claimed it, then
		// fail the transport; deliverErr is CAS-guarded against a
		// concurrent fail() settling the future first.
		c.abandonPending(xid)
		sticky := c.fail(&TransportError{Err: fmt.Errorf("write: %w", err)})
		p.deliverErr(sticky)
	}
	return p
}
