package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crossbar"
)

// echoInfer returns each row's first feature truncated to int — enough to
// check request/response pairing without a model.
func echoInfer(rows [][]float32) ([]int, crossbar.Stats, error) {
	preds := make([]int, len(rows))
	for i, row := range rows {
		preds[i] = int(row[0])
	}
	return preds, crossbar.Stats{}, nil
}

// holdFirstBatch wraps infer so its first call signals entered and then
// blocks until release is closed. With the dispatcher parked inside that
// batch, a test can queue more requests and know exactly how they coalesce:
// the batcher never waits for company, so only work that is already queued
// when the dispatcher frees up shares a batch.
func holdFirstBatch(infer InferFn) (fn InferFn, entered <-chan struct{}, release chan<- struct{}) {
	in, rel := make(chan struct{}), make(chan struct{})
	held := false // touched only by the single dispatcher goroutine
	fn = func(rows [][]float32) ([]int, crossbar.Stats, error) {
		if !held {
			held = true
			close(in)
			<-rel
		}
		return infer(rows)
	}
	return fn, in, rel
}

func TestBatcherPairsRequestsToResponses(t *testing.T) {
	infer, entered, release := holdFirstBatch(echoInfer)
	b := NewBatcher(BatcherConfig{MaxBatch: 8}, infer, nil)
	defer b.Close()
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	preds := make([]int, n)
	submit := func(i int) {
		defer wg.Done()
		preds[i], errs[i] = b.Submit(context.Background(), []float32{float32(i)})
	}
	wg.Add(1)
	go submit(0)
	<-entered // request 0 is in flight alone; the rest queue behind it
	for i := 1; i < n; i++ {
		wg.Add(1)
		go submit(i)
	}
	waitDepth(t, b, n-1)
	close(release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if preds[i] != i {
			t.Fatalf("request %d got prediction %d — responses crossed", i, preds[i])
		}
	}
	st := b.Metrics().Snapshot(b.Depth())
	if st.Admitted != n || st.Completed != n {
		t.Fatalf("admitted %d completed %d, want %d", st.Admitted, st.Completed, n)
	}
	if st.Batches >= n {
		t.Fatalf("%d batches for %d concurrent requests — no coalescing happened", st.Batches, n)
	}
}

func TestBatcherDispatchesLoneRequestWithoutWaiting(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 1000}, echoInfer, nil)
	defer b.Close()
	start := time.Now()
	pred, err := b.Submit(context.Background(), []float32{42})
	if err != nil || pred != 42 {
		t.Fatalf("got (%d, %v)", pred, err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lone request waited %v on an idle lane", waited)
	}
	if st := b.Metrics().Snapshot(0); st.BatchSizes["1"] != 1 {
		t.Fatalf("batch-size histogram %v, want one batch of 1", st.BatchSizes)
	}
}

// Close must flush requests still queued behind a running batch as a final
// partial batch, not drop them.
func TestBatcherCloseFlushesQueuedPartialBatch(t *testing.T) {
	infer, entered, release := holdFirstBatch(echoInfer)
	b := NewBatcher(BatcherConfig{MaxBatch: 8}, infer, nil)
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	preds := make([]int, n)
	submit := func(i int) {
		defer wg.Done()
		preds[i], errs[i] = b.Submit(context.Background(), []float32{float32(i)})
	}
	wg.Add(n)
	go submit(0)
	<-entered
	for i := 1; i < n; i++ {
		go submit(i)
	}
	waitDepth(t, b, n-1)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitClosed(t, b)
	close(release)
	<-closed
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || preds[i] != i {
			t.Fatalf("request %d got (%d, %v) after Close", i, preds[i], errs[i])
		}
	}
	st := b.Metrics().Snapshot(0)
	if st.Completed != n || st.BatchSizes["1"] != 1 || st.BatchSizes["3"] != 1 {
		t.Fatalf("completed %d, batch sizes %v; want %d completed in batches of 1 and 3", st.Completed, st.BatchSizes, n)
	}
}

// waitClosed polls until Close has flipped the batcher's closed flag; Close
// does so before it blocks on the drain.
func waitClosed(t *testing.T, b *Batcher) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.RLock()
		flagged := b.closed
		b.mu.RUnlock()
		if flagged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never flipped the closed flag")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBatcherBackpressure(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		started <- struct{}{}
		<-release
		return echoInfer(rows)
	}
	const depth = 4
	b := NewBatcher(BatcherConfig{MaxBatch: 1, QueueDepth: depth}, blocked, nil)

	results := make(chan error, depth+1)
	submit := func() {
		_, err := b.Submit(context.Background(), []float32{1})
		results <- err
	}
	go submit()
	<-started // the dispatcher now holds one request inside infer
	for i := 0; i < depth; i++ {
		go submit()
	}
	// The queue is full (depth admitted, one in flight); admission must now
	// fail fast, not block.
	waitDepth(t, b, depth)
	if _, err := b.Submit(context.Background(), []float32{1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit returned %v, want ErrQueueFull", err)
	}
	if st := b.Metrics().Snapshot(0); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	close(release)
	for i := 0; i < depth; i++ {
		<-started // let the remaining batches through
	}
	for i := 0; i < depth+1; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	b.Close()
}

// waitDepth polls until the admission queue holds want requests; the
// goroutines submitting them are concurrent with the caller.
func waitDepth(t *testing.T, b *Batcher, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Depth() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", b.Depth(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBatcherSkipsCanceledRequests(t *testing.T) {
	var mu sync.Mutex
	var seen []float32
	recording := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		mu.Lock()
		for _, row := range rows {
			seen = append(seen, row[0])
		}
		mu.Unlock()
		return echoInfer(rows)
	}
	infer, entered, release := holdFirstBatch(recording)
	b := NewBatcher(BatcherConfig{MaxBatch: 2}, infer, nil)
	defer b.Close()

	blocker := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float32{5})
		blocker <- err
	}()
	<-entered // the dispatcher is busy; A and the live request queue as one batch

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctxA, []float32{1})
		errA <- err
	}()
	waitDepth(t, b, 1)
	live := make(chan int, 1)
	go func() {
		pred, err := b.Submit(context.Background(), []float32{7})
		if err != nil {
			t.Errorf("live request: %v", err)
		}
		live <- pred
	}()
	waitDepth(t, b, 2)
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}
	close(release)
	if pred := <-live; pred != 7 {
		t.Fatalf("live request got %d, want 7", pred)
	}
	if err := <-blocker; err != nil {
		t.Fatalf("blocking request: %v", err)
	}
	mu.Lock()
	got := append([]float32(nil), seen...)
	mu.Unlock()
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("backend evaluated rows %v, want [5 7] — canceled work was not shed", got)
	}
	if st := b.Metrics().Snapshot(0); st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
}

func TestBatcherPropagatesBackendError(t *testing.T) {
	boom := errors.New("substrate fault")
	failing := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		return nil, crossbar.Stats{}, boom
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, failing, nil)
	defer b.Close()
	if _, err := b.Submit(context.Background(), []float32{1}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the backend error", err)
	}
	if st := b.Metrics().Snapshot(0); st.Failed != 1 {
		t.Fatalf("failed = %d, want 1", st.Failed)
	}
}

func TestBatcherCloseDrainsAdmittedRefusesNew(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		started <- struct{}{}
		<-release
		return echoInfer(rows)
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 1, QueueDepth: 8}, blocked, nil)

	const admitted = 3
	results := make(chan error, admitted)
	for i := 0; i < admitted; i++ {
		go func() {
			_, err := b.Submit(context.Background(), []float32{1})
			results <- err
		}()
	}
	<-started // one in flight, the rest queued
	waitDepth(t, b, admitted-1)

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	// Close must refuse new work as soon as it flips the flag (it does so
	// before blocking on the drain)...
	waitClosed(t, b)
	if _, err := b.Submit(context.Background(), []float32{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit during drain returned %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still blocked in the backend")
	default:
	}
	// ...while every admitted request completes.
	go func() {
		for {
			select {
			case <-started:
			case <-closed:
				return
			}
		}
	}()
	close(release)
	for i := 0; i < admitted; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed during drain: %v", err)
		}
	}
	<-closed
	b.Close() // idempotent
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.0, 100 * time.Millisecond},
	} {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Errorf("quantile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty window must quantile to 0")
	}
}

func ExampleBatcher() {
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, echoInfer, nil)
	defer b.Close()
	pred, _ := b.Submit(context.Background(), []float32{3})
	fmt.Println(pred)
	// Output: 3
}
