package fabric

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// collectFlusher records flushed batches and optionally fails.
type collectFlusher struct {
	mu      sync.Mutex
	batches [][]int
	err     error
}

func (f *collectFlusher) flush(items []int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, append([]int(nil), items...))
	return f.err
}

func (f *collectFlusher) snapshot() [][]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]int(nil), f.batches...)
}

// gateFlusher announces each batch on started, then blocks until release
// lets it finish (one receive per flush, or every flush once closed). It
// holds a flush in flight for exactly as long as a test needs, so no test
// sleeps.
type gateFlusher struct {
	started chan []int
	release chan struct{}
	err     error
}

func newGateFlusher() *gateFlusher {
	// started holds more batches than any test flushes, so announcing a
	// batch never blocks a flush the test has already released.
	return &gateFlusher{started: make(chan []int, 64), release: make(chan struct{})}
}

func (f *gateFlusher) flush(items []int) error {
	f.started <- append([]int(nil), items...)
	<-f.release
	return f.err
}

// next waits for the next flush to start and returns its batch.
func (f *gateFlusher) next(t *testing.T) []int {
	t.Helper()
	select {
	case batch := <-f.started:
		return batch
	case <-time.After(5 * time.Second):
		t.Fatal("no flush started")
		return nil
	}
}

// await waits for an item's flush outcome.
func await(t *testing.T, w <-chan error) error {
	t.Helper()
	select {
	case err := <-w:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("no flush outcome")
		return nil
	}
}

func addAll(b *Batcher[int], items ...int) []<-chan error {
	var waits []<-chan error
	for _, it := range items {
		waits = append(waits, b.Add(it))
	}
	return waits
}

// TestBatcherLoneItemFlushesAtOnce is the group-commit contract an idle
// worker relies on: with no flush in flight, one item is flushed without
// waiting for company, however large the batch size.
func TestBatcherLoneItemFlushesAtOnce(t *testing.T) {
	f := &collectFlusher{}
	b := NewBatcher(1000, f.flush)
	defer b.Close()
	if err := await(t, b.Add(42)); err != nil {
		t.Fatal(err)
	}
	if got := f.snapshot(); !reflect.DeepEqual(got, [][]int{{42}}) {
		t.Errorf("batches = %v, want [[42]]", got)
	}
}

// TestBatcherGroupsAddsDuringFlush: items added while a flush is in
// flight go out together, in order, as exactly the next flush.
func TestBatcherGroupsAddsDuringFlush(t *testing.T) {
	f := newGateFlusher()
	b := NewBatcher(32, f.flush)
	first := b.Add(0)
	if got := f.next(t); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first flush = %v, want [0]", got)
	}
	waits := addAll(b, 1, 2, 3, 4, 5)
	f.release <- struct{}{}
	if err := await(t, first); err != nil {
		t.Fatal(err)
	}
	if got := f.next(t); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("second flush = %v, want [1 2 3 4 5]", got)
	}
	f.release <- struct{}{}
	for i, w := range waits {
		if err := await(t, w); err != nil {
			t.Fatalf("item %d: %v", i+1, err)
		}
	}
	b.Close()
	if n := len(f.started); n != 0 {
		t.Errorf("%d extra flushes after the grouped one", n)
	}
}

// TestBatcherSizeFlush: a backlog larger than the batch size goes out in
// chunks of at most size, in order.
func TestBatcherSizeFlush(t *testing.T) {
	f := newGateFlusher()
	b := NewBatcher(3, f.flush)
	b.Add(0)
	if got := f.next(t); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first flush = %v, want [0]", got)
	}
	waits := addAll(b, 1, 2, 3, 4, 5, 6, 7)
	close(f.release)
	for _, want := range [][]int{{1, 2, 3}, {4, 5, 6}, {7}} {
		if got := f.next(t); !reflect.DeepEqual(got, want) {
			t.Fatalf("flush = %v, want %v", got, want)
		}
	}
	for i, w := range waits {
		if err := await(t, w); err != nil {
			t.Fatalf("item %d: %v", i+1, err)
		}
	}
	b.Close()
}

// TestBatcherCloseFlushesRemainder: Close returns only once every
// buffered item is flushed, and a later Add gets ErrBatcherClosed.
func TestBatcherCloseFlushesRemainder(t *testing.T) {
	f := newGateFlusher()
	b := NewBatcher(1000, f.flush)
	b.Add(0)
	f.next(t)
	waits := addAll(b, 1, 2, 3, 4)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a flush in flight")
	case <-f.started:
		t.Fatal("the remainder was flushed before the first flush finished")
	default:
	}
	close(f.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if got := f.next(t); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("remainder flush = %v, want [1 2 3 4]", got)
	}
	for i, w := range waits {
		select {
		case err := <-w:
			if err != nil {
				t.Fatalf("item %d: %v", i+1, err)
			}
		default:
			t.Fatalf("item %d: Close returned before delivering its outcome", i+1)
		}
	}
	if err := <-b.Add(5); !errors.Is(err, ErrBatcherClosed) {
		t.Errorf("Add after Close = %v, want ErrBatcherClosed", err)
	}
}

func TestBatcherErrorReachesEveryItem(t *testing.T) {
	boom := errors.New("boom")
	f := newGateFlusher()
	f.err = boom
	b := NewBatcher(32, f.flush)
	waits := addAll(b, 1)
	f.next(t)
	waits = append(waits, addAll(b, 2, 3)...)
	close(f.release)
	for i, w := range waits {
		if err := await(t, w); !errors.Is(err, boom) {
			t.Errorf("item %d: err = %v, want boom", i+1, err)
		}
	}
	b.Close()
}

// TestBatcherManyConcurrentAdds exercises the lock discipline under the
// race detector: many producers adding while flushes start and finish.
func TestBatcherManyConcurrentAdds(t *testing.T) {
	f := &collectFlusher{}
	b := NewBatcher(8, f.flush)
	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-b.Add(i)
		}(i)
	}
	wg.Wait()
	b.Close()
	total := 0
	for _, batch := range f.snapshot() {
		if len(batch) > 8 {
			t.Errorf("batch of %d exceeds the size cap 8", len(batch))
		}
		total += len(batch)
	}
	if total != n {
		t.Errorf("flushed %d items, want %d", total, n)
	}
}
