package proxy

import (
	"context"
	"errors"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
)

// Pipelined write-back. FlushAll submits every dirty block as an
// UNSTABLE WRITE future and settles each file with one COMMIT,
// checking the server's write verifier to detect a restart that lost
// unstable data (RFC 1813 §3.3.7: a verifier change means everything
// unstable must be re-sent). One goroutine submits the futures and
// drains them oldest-first with at most the pipeline window
// outstanding, so flush time over a WAN is about (blocks / window)
// round trips, and the window caps both the block data held in memory
// and, on the replicated upstream, the goroutines driving the futures.
// Blocks whose writes fail are left dirty in the cache, so a later
// flush — or the next session — retries them; nothing is ever marked
// clean without a durable acknowledgement.

// flushFile is one file's progress through a flush round. Only the
// FlushAll goroutine touches it.
type flushFile struct {
	fh       nfs3.FH3
	size     uint64
	haveSize bool

	failed   bool     // a write failed: skip COMMIT, leave blocks dirty
	written  []uint64 // blocks acknowledged UNSTABLE, awaiting COMMIT
	verf     [nfs3.WriteVerfSize]byte
	verfSet  bool
	mismatch bool // write verifiers disagreed mid-flush
}

// recordWritten notes a successful UNSTABLE write and folds its
// verifier in: the server reports the same verifier for every write
// since it last restarted, so any disagreement inside one flush round
// means unstable data was dropped in between.
func (f *flushFile) recordWritten(idx uint64, verf [nfs3.WriteVerfSize]byte) {
	if !f.verfSet {
		f.verf = verf
		f.verfSet = true
	} else if verf != f.verf {
		f.mismatch = true
	}
	f.written = append(f.written, idx)
}

// flushOp is one future in the flush pipeline: a block WRITE, or a
// file's COMMIT.
type flushOp struct {
	f      *flushFile
	idx    uint64
	stable uint32 // nfs3.Unstable on the first pass, FileSync on a re-send
	last   bool   // the file's last first-pass WRITE: settling it commits the file
	commit bool

	ctx    context.Context
	cancel context.CancelFunc
	pend   *oncrpc.Pending // nil when a WRITE had nothing to send
	wargs  nfs3.WriteArgs
	wres   nfs3.WriteRes
	cres   nfs3.CommitRes
}

// flushRun is the state of one FlushAll invocation.
type flushRun struct {
	p        *ClientProxy
	ctx      context.Context
	firstErr error
}

func (r *flushRun) setErr(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// popFront removes and returns the head of q, clearing its slot so a
// settled op (and its block data) is not kept reachable.
func popFront(q *[]*flushOp) *flushOp {
	op := (*q)[0]
	(*q)[0] = nil
	*q = (*q)[1:]
	return op
}

// FlushAll writes every dirty cached block back to the server through
// the future pipeline. The time this takes is the paper's separately-
// reported "time needed to write back data at the end of execution".
func (p *ClientProxy) FlushAll(ctx context.Context) error {
	dc := p.cfg.DiskCache
	if dc == nil {
		return nil
	}
	var todo []*flushOp
	for _, fh := range dc.DirtyFiles() {
		idxs := dc.DirtyList(fh)
		if len(idxs) == 0 {
			continue
		}
		f := &flushFile{fh: fh}
		if attr, ok := dc.GetAttr(fh); ok {
			f.size, f.haveSize = attr.Size, true
		}
		for _, idx := range idxs {
			todo = append(todo, &flushOp{f: f, idx: idx, stable: nfs3.Unstable})
		}
		todo[len(todo)-1].last = true
	}
	// A file's ops are contiguous in todo and both submission and
	// draining are oldest-first, so when its last WRITE settles every
	// earlier one has too. Follow-ups (COMMITs, stable re-sends) go
	// ahead of the remaining todo, overlapping other files' writes.
	r := &flushRun{p: p, ctx: ctx}
	window := p.cfg.pipelineWindow()
	var inflight, next []*flushOp
	for len(todo)+len(next)+len(inflight) > 0 {
		if len(inflight) < window && len(todo)+len(next) > 0 {
			var op *flushOp
			if len(next) > 0 {
				op = popFront(&next)
			} else {
				op = popFront(&todo)
			}
			r.start(op)
			inflight = append(inflight, op)
			continue
		}
		next = append(next, r.settle(popFront(&inflight))...)
	}
	return r.firstErr
}

// start submits op's call on its own deadline, the bound upCall puts
// on a synchronous call.
func (r *flushRun) start(op *flushOp) {
	op.ctx, op.cancel = context.WithTimeout(r.ctx, r.p.opTimeout())
	if op.commit {
		op.pend = r.p.up.Go(op.ctx, nfs3.ProcCommit, &nfs3.CommitArgs{Obj: op.f.fh}, &op.cres)
		return
	}
	r.p.startWrite(op)
}

// clipCrypt clips block data to the cached file size (so the flush does
// not extend the file with block padding) and applies at-rest
// encryption. ok=false means the block lies wholly past EOF and needs
// no write at all. Both run off the cache shard locks.
func (p *ClientProxy) clipCrypt(f *flushFile, idx uint64, data []byte) ([]byte, bool) {
	bs := uint64(p.cfg.DiskCache.BlockSize())
	if f.haveSize {
		blockStart := idx * bs
		if blockStart >= f.size {
			return nil, false
		}
		if blockStart+uint64(len(data)) > f.size {
			data = data[:f.size-blockStart]
		}
	}
	if len(p.cfg.StorageKey) > 0 {
		data = atRestCrypt(p.cfg.StorageKey, f.fh, idx*bs, data)
	}
	return data, true
}

// startWrite submits one dirty block's WRITE future. A block that was
// dropped since listing (e.g. REMOVE) or lies wholly past EOF sends
// nothing and leaves op.pend nil.
//
//sgfsvet:hot-path
func (p *ClientProxy) startWrite(op *flushOp) {
	dc := p.cfg.DiskCache
	f := op.f
	data, ok := dc.GetBlock(f.fh, op.idx)
	if !ok {
		return
	}
	data, ok = p.clipCrypt(f, op.idx, data)
	if !ok {
		dc.FlushDone(f.fh, op.idx)
		return
	}
	bs := uint64(dc.BlockSize())
	op.wargs = nfs3.WriteArgs{Obj: f.fh, Offset: op.idx * bs, Count: uint32(len(data)), Stable: op.stable, Data: data}
	p.dp.EnterFlush()
	op.pend = p.up.Go(op.ctx, nfs3.ProcWrite, &op.wargs, &op.wres)
}

// settle waits for op, folds its outcome into the file, and returns
// the follow-up ops it makes due: the file's COMMIT after its last
// WRITE, or the stable re-sends after a COMMIT verifier mismatch.
func (r *flushRun) settle(op *flushOp) []*flushOp {
	defer op.cancel()
	if op.commit {
		return r.settleCommit(op)
	}
	f := op.f
	if op.pend != nil {
		err := r.p.waitWrite(op)
		r.p.dp.LeaveFlush()
		switch {
		case err != nil:
			f.failed = true
			r.setErr(err)
		case op.wres.Status != nfs3.OK:
			f.failed = true
			r.setErr(op.wres.Status.Error())
		default:
			r.p.dp.FlushedBlocks.Add(1)
			if op.wargs.Stable == nfs3.FileSync || op.wres.Committed == nfs3.FileSync {
				// Already durable upstream; no COMMIT needed for this block.
				r.p.cfg.DiskCache.FlushDone(f.fh, op.idx)
			} else {
				f.recordWritten(op.idx, op.wres.Verf)
			}
		}
	}
	// A failed file keeps its UNSTABLE-written blocks dirty too:
	// without a COMMIT they have no durability guarantee.
	if !op.last || f.failed || len(f.written) == 0 {
		return nil
	}
	return []*flushOp{{f: f, commit: true}}
}

// waitWrite waits for one WRITE future. The reconnect layer refuses to
// replay WRITE, but a flush write is identical bytes at an absolute
// offset: re-executing it is harmless. After ErrNonIdempotentReplay it
// is retried once on the re-established session, FILE_SYNC this time
// — the old session's unstable state (and its verifier) died with the
// connection, so only a stable write proves durability here.
func (p *ClientProxy) waitWrite(op *flushOp) error {
	err := op.pend.Wait(op.ctx)
	if errors.Is(err, oncrpc.ErrNonIdempotentReplay) {
		p.dp.FlushRetries.Add(1)
		op.wargs.Stable = nfs3.FileSync
		op.wres = nfs3.WriteRes{}
		err = p.up.Go(op.ctx, nfs3.ProcWrite, &op.wargs, &op.wres).Wait(op.ctx)
	}
	return err
}

// settleCommit settles a file's UNSTABLE writes with its COMMIT. If the
// commit verifier disagrees with the write verifier (or the writes
// disagreed among themselves), the server restarted mid-flush and may
// have lost unstable data: every written block is re-sent FILE_SYNC
// through the same pipeline, and marked clean only when that succeeds.
func (r *flushRun) settleCommit(op *flushOp) []*flushOp {
	f := op.f
	err := op.pend.Wait(op.ctx)
	if err == nil && op.cres.Status != nfs3.OK {
		err = op.cres.Status.Error()
	}
	if err != nil {
		r.setErr(err)
		return nil
	}
	if f.mismatch || op.cres.Verf != f.verf {
		r.p.dp.CommitMismatches.Add(1)
		resend := make([]*flushOp, len(f.written))
		for i, idx := range f.written {
			resend[i] = &flushOp{f: f, idx: idx, stable: nfs3.FileSync}
		}
		return resend
	}
	dc := r.p.cfg.DiskCache
	for _, idx := range f.written {
		dc.FlushDone(f.fh, idx)
	}
	return nil
}
