package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/vfs"
)

// TestRevalidateAttrsSweep checks the pipelined attribute
// revalidation: attrs the session cache holds are re-fetched
// concurrently, a file changed behind the proxy's back loses its
// cached blocks, and an unchanged file keeps them.
func TestRevalidateAttrsSweep(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc})
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1, AttrTimeout: time.Nanosecond})
	ctx := context.Background()

	payload := bytes.Repeat([]byte("Q"), 64*1024)
	for _, name := range []string{"steady", "moving"} {
		f, err := fs.Create(ctx, name, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Push write-back data to the server, then sync the cached attrs
	// with the server's view (the local write stamps mtimes itself, so
	// the first post-flush sweep legitimately sees them as changed).
	if err := st.clientProxy.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.clientProxy.RevalidateAttrs(ctx); err != nil {
		t.Fatal(err)
	}
	// Read both files back so the disk cache holds their blocks clean.
	for _, name := range []string{"steady", "moving"} {
		g, err := fs.Open(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		if _, err := g.ReadAt(ctx, buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		g.Close(ctx)
	}

	// A clean sweep: everything cached, nothing changed.
	checked, changed, err := st.clientProxy.RevalidateAttrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 2 || changed != 0 {
		t.Fatalf("clean sweep: checked=%d changed=%d", checked, changed)
	}

	// Mutate "moving" directly in the backend, bypassing the proxy.
	mfh, err := lookupBackend(st, "moving")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBackend(st, "moving", []byte("rewritten-short")); err != nil {
		t.Fatal(err)
	}

	checked, changed, err = st.clientProxy.RevalidateAttrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 2 {
		t.Fatalf("sweep checked only %d handles", checked)
	}
	if changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	if dc.Contains(mfh, 0) {
		t.Fatal("stale blocks of the changed file survived the sweep")
	}
	// The cached attr must now reflect the upstream truth.
	if a, ok := dc.GetAttr(mfh); !ok || a.Size != uint64(len("rewritten-short")) {
		t.Fatalf("post-sweep attr = %+v (ok=%v)", a, ok)
	}

	sfh, err := lookupBackend(st, "steady")
	if err != nil {
		t.Fatal(err)
	}
	if !dc.Contains(sfh, 0) {
		t.Fatal("unchanged file lost its cached blocks")
	}
}

// lookupBackend resolves name against the backend MemFS root,
// returning the NFS handle the proxies use for it.
func lookupBackend(st *testStack, name string) (nfs3.FH3, error) {
	h, _, err := st.backend.Lookup(st.backend.Root(), name)
	if err != nil {
		return nfs3.FH3{}, err
	}
	return nfs3.FromHandle(h), nil
}

// writeBackend rewrites name's contents directly in the backend,
// invisible to the proxy layer (another client's update).
func writeBackend(st *testStack, name string, data []byte) error {
	h, _, err := st.backend.Lookup(st.backend.Root(), name)
	if err != nil {
		return err
	}
	zero := uint64(0)
	if _, err := st.backend.SetAttr(h, vfs.SetAttr{Size: &zero}); err != nil {
		return err
	}
	return st.backend.Write(h, 0, data)
}

// TestRevalidateAttrsReplicated runs the attribute sweep over the
// replicated upstream, whose futures are goroutine-driven: a file
// rewritten on every backend behind the proxy's back is detected and
// loses its cached blocks, while an unchanged file keeps them.
func TestRevalidateAttrsReplicated(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{n: 3, quorum: 2, diskCache: dc, readahead: -1})
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1, AttrTimeout: time.Nanosecond})
	ctx := context.Background()

	names := []string{"steady", "moving"}
	payload := bytes.Repeat([]byte("R"), 64*1024)
	for _, name := range names {
		f, err := fs.Create(ctx, name, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.cp.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	// Wait for every replica to hold the bytes, then give all of them
	// one mtime, so the sweep sees the same attributes whichever
	// replica answers a hedged GETATTR.
	mtime := time.Unix(1_700_000_000, 0)
	for b, backend := range st.backends {
		for _, name := range names {
			backend, name := backend, name
			waitFor(t, 10*time.Second, fmt.Sprintf("%s on backend %d", name, b), func() bool {
				got, err := backendFile(backend, name)
				return err == nil && bytes.Equal(got, payload)
			})
			h, _, err := backend.Lookup(backend.Root(), name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := backend.SetAttr(h, vfs.SetAttr{Mtime: &mtime}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Sync the session cache with the upstream view, then read both
	// files back so the disk cache holds their blocks clean.
	if _, _, err := st.cp.RevalidateAttrs(ctx); err != nil {
		t.Fatal(err)
	}
	fhs := make(map[string]nfs3.FH3)
	for _, name := range names {
		fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		fhs[name] = fh
		if _, _, err := fs.Proto().Read(ctx, fh, 0, 32*1024); err != nil {
			t.Fatal(err)
		}
	}

	checked, changed, err := st.cp.RevalidateAttrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 2 || changed != 0 {
		t.Fatalf("clean sweep: checked=%d changed=%d", checked, changed)
	}

	short := []byte("rewritten-short")
	zero := uint64(0)
	for _, backend := range st.backends {
		h, _, err := backend.Lookup(backend.Root(), "moving")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := backend.SetAttr(h, vfs.SetAttr{Size: &zero}); err != nil {
			t.Fatal(err)
		}
		if err := backend.Write(h, 0, short); err != nil {
			t.Fatal(err)
		}
	}
	checked, changed, err = st.cp.RevalidateAttrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 2 || changed != 1 {
		t.Fatalf("sweep after rewrite: checked=%d changed=%d, want >=2 and 1", checked, changed)
	}
	if dc.Contains(fhs["moving"], 0) {
		t.Fatal("stale blocks of the changed file survived the sweep")
	}
	if a, ok := dc.GetAttr(fhs["moving"]); !ok || a.Size != uint64(len(short)) {
		t.Fatalf("post-sweep attr = %+v (ok=%v)", a, ok)
	}
	if !dc.Contains(fhs["steady"], 0) {
		t.Fatal("unchanged file lost its cached blocks")
	}
}
