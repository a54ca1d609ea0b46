package fabric

import (
	"errors"
	"sync"
)

// Batcher delivers items by group commit, the shape small cell results
// need on the wire: an Add while no flush is in flight starts one at
// once, and the items added while a flush is in flight go together in
// the next, at most size per flush. A batch is therefore whatever piled
// up during the previous round trip — it grows under load by itself, and
// an idle batcher makes nothing wait. Each Add returns a per-item channel
// that reports its batch's flush outcome, so callers can couple to
// delivery without every item paying its own round trip.
type Batcher[T any] struct {
	size  int
	flush func([]T) error

	mu       sync.Mutex
	items    []T
	waiters  []chan error
	flushing bool // a flusher goroutine owns the buffer
	closed   bool
	wg       sync.WaitGroup
}

// ErrBatcherClosed reports an Add after Close.
var ErrBatcherClosed = errors.New("fabric: batcher closed")

// NewBatcher creates a group-commit batcher flushing at most size items
// at a time; size <= 0 means 32. flush is called outside the batcher's
// lock, one call at a time, and may block (e.g. on HTTP retries); its
// error is delivered to every item of the batch.
func NewBatcher[T any](size int, flush func([]T) error) *Batcher[T] {
	if size <= 0 {
		size = 32
	}
	return &Batcher[T]{size: size, flush: flush}
}

// Add buffers an item, starting a flush if none is in flight, and returns
// the channel its batch outcome arrives on (buffered; the batcher never
// blocks delivering it).
func (b *Batcher[T]) Add(item T) <-chan error {
	done := make(chan error, 1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		done <- ErrBatcherClosed
		return done
	}
	b.items = append(b.items, item)
	b.waiters = append(b.waiters, done)
	if !b.flushing {
		b.flushing = true
		b.wg.Add(1)
		go b.run()
	}
	return done
}

// run flushes until the buffer is empty: each round takes up to size of
// the items that piled up while the previous round was in flight.
func (b *Batcher[T]) run() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		n := min(len(b.items), b.size)
		if n == 0 {
			b.flushing = false
			b.mu.Unlock()
			return
		}
		items, waiters := b.items[:n:n], b.waiters[:n:n]
		b.items, b.waiters = b.items[n:], b.waiters[n:]
		b.mu.Unlock()
		err := b.flush(items)
		for _, w := range waiters {
			w <- err
		}
	}
}

// Close waits until every buffered item is flushed. Subsequent Adds fail
// with ErrBatcherClosed.
func (b *Batcher[T]) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wg.Wait()
}
