package graph

import "sync"

// The streaming readers cycle through one batch worth of bytes and edges
// per read. These pools let back-to-back streams — and each v2 block's
// payload read — reuse those buffers instead of re-allocating them, keeping
// the steady-state ingress loop allocation-free.
// Buffers hand out with length 0 and at least the requested capacity;
// callers reslice. Putting a buffer back while any slice of it is still
// referenced is the usual pool bug; the loaders only recycle after fn (or
// the decoder) has returned, which is the documented "batch is reused,
// copy what you retain" contract.

var edgeBufPool = sync.Pool{
	New: func() any { s := make([]Edge, 0, DefaultBatchSize); return &s },
}

func getEdgeBuf(n int) *[]Edge {
	p := edgeBufPool.Get().(*[]Edge)
	if cap(*p) < n {
		*p = make([]Edge, 0, n)
	}
	return p
}

func putEdgeBuf(p *[]Edge) {
	*p = (*p)[:0]
	edgeBufPool.Put(p)
}

var byteBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 8*DefaultBatchSize); return &b },
}

func getByteBuf(n int) *[]byte {
	p := byteBufPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, 0, n)
	}
	return p
}

func putByteBuf(p *[]byte) {
	*p = (*p)[:0]
	byteBufPool.Put(p)
}
