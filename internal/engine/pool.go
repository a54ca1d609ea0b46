package engine

import (
	"sync/atomic"
)

// Pool is the sharded engine's persistent worker pool: Run(n, fn)
// invokes fn(i) for every i in [0, n) across the workers and returns when
// all calls have finished. One pool serves every fan-out of a cell: the
// per-shard phase 1 of each epoch, then the barrier's passes over the
// address slices and over the SMs. Workers are started once and reused;
// a Run costs two channel operations per worker it kicks and allocates
// nothing as long as fn is built once rather than per call.
//
// Work items are claimed through an atomic cursor, so the item-to-worker
// mapping varies run to run; fn must therefore only mutate state owned by
// its item index. Results are then a pure function of the items and
// bit-identical at any worker count, including one. With fewer than two
// workers (or fewer than two items) Run degenerates to a plain loop on
// the calling goroutine. The channel handshake around each Run
// establishes the happens-before edges that make the caller's subsequent
// reads of item state race-free.
type Pool struct {
	fn    func(int)
	n     int64
	next  atomic.Int64
	start []chan struct{}
	done  chan struct{}
	open  bool
}

// NewPool builds a pool with up to `workers` concurrent workers. Values
// below 2 mean every Run executes serially on the caller's goroutine.
func NewPool(workers int) *Pool {
	p := &Pool{}
	if workers < 2 {
		return p
	}
	p.start = make([]chan struct{}, workers)
	p.done = make(chan struct{}, workers)
	for w := range p.start {
		p.start[w] = make(chan struct{})
		go p.worker(p.start[w])
	}
	p.open = true
	return p
}

func (p *Pool) worker(kick chan struct{}) {
	for range kick {
		for {
			i := p.next.Add(1) - 1
			if i >= p.n {
				break
			}
			p.fn(int(i))
		}
		p.done <- struct{}{}
	}
}

// Run invokes fn(i) for every i in [0, n) and returns when all calls have
// finished. Calls are serial: the caller is the barrier. fn and n are
// published to the workers through the kick channels, so Run must not be
// called concurrently with itself.
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p.start == nil || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.fn = fn
	p.n = int64(n)
	p.next.Store(0)
	kicks := p.start
	if n < len(kicks) {
		kicks = kicks[:n]
	}
	for _, kick := range kicks {
		kick <- struct{}{}
	}
	for range kicks {
		<-p.done
	}
	p.fn = nil
}

// Close stops the worker goroutines. The pool must not be used after
// Close; calling Close twice is safe.
func (p *Pool) Close() {
	if !p.open {
		return
	}
	p.open = false
	for _, kick := range p.start {
		close(kick)
	}
}
