package service

import (
	"errors"
	"sync"
	"testing"

	"sdcgmres/internal/obs"
	"sdcgmres/internal/qos"
)

// These tests pin the engine's admission queue without a QoS config: a
// scheduler built from qos.Flat, to which the engine pushes every job as
// the default tenant in the batch band with no deadline. They are the
// oracle that it keeps a bounded FIFO's order, bound and drain.

// flatQueue is a qos.Flat scheduler pushed the way the engine pushes
// without a QoS config.
type flatQueue[T any] struct{ *qos.Scheduler[T] }

func newFlatQueue[T any](t *testing.T, depth int) flatQueue[T] {
	t.Helper()
	s, err := qos.New(qos.Flat(depth), qos.Options[T]{})
	if err != nil {
		t.Fatal(err)
	}
	return flatQueue[T]{s}
}

func (q flatQueue[T]) Push(v T) error {
	return q.Scheduler.Push(qos.DefaultTenant, qos.Batch, 0, v)
}

// isQueueFull reports whether err is the full-queue rejection.
func isQueueFull(err error) bool {
	var shed *qos.ShedError
	return errors.As(err, &shed) && shed.Reason == qos.ReasonQueueFull
}

func TestFIFOOrder(t *testing.T) {
	q := newFlatQueue[int](t, 8)
	for i := 0; i < 5; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestFIFOAdmissionControl(t *testing.T) {
	q := newFlatQueue[int](t, 2)
	if err := q.Push(1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(2); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(3); !isQueueFull(err) {
		t.Fatalf("overflow push: %v", err)
	}
	// Popping frees capacity.
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if err := q.Push(3); err != nil {
		t.Fatalf("push after pop: %v", err)
	}
}

func TestFIFOCloseDrains(t *testing.T) {
	q := newFlatQueue[int](t, 4)
	q.Push(1)
	q.Push(2)
	q.Close()
	if err := q.Push(3); !errors.Is(err, qos.ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
	// Closing drains: queued items remain poppable, then Pop reports done.
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("pop after close: %d %v", v, ok)
	}
	if v, ok := q.Pop(); !ok || v != 2 {
		t.Fatalf("pop after close: %d %v", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained closed queue must report done")
	}
}

func TestFIFOCloseWakesBlockedPop(t *testing.T) {
	q := newFlatQueue[int](t, 1)
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	q.Close()
	if ok := <-done; ok {
		t.Fatal("blocked pop should wake with ok=false")
	}
}

// TestFIFOPropertyPerProducerOrder: with concurrent producers, items from
// any single producer are consumed in the order that producer pushed them
// — the FIFO never reorders within a push stream.
func TestFIFOPropertyPerProducerOrder(t *testing.T) {
	const producers, items = 4, 300
	type tagged struct{ producer, seq int }
	q := newFlatQueue[tagged](t, producers*items)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				if err := q.Push(tagged{p, i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	q.Close()
	lastSeq := make([]int, producers)
	for p := range lastSeq {
		lastSeq[p] = -1
	}
	total := 0
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v.seq <= lastSeq[v.producer] {
			t.Fatalf("producer %d: seq %d after %d", v.producer, v.seq, lastSeq[v.producer])
		}
		lastSeq[v.producer] = v.seq
		total++
	}
	if total != producers*items {
		t.Fatalf("drained %d of %d items", total, producers*items)
	}
}

// TestFIFOPropertyCapacityUnderContention: when concurrent producers
// over-subscribe a bounded queue, exactly capacity pushes succeed and the
// rest fail as queue-full — no item is lost or duplicated.
func TestFIFOPropertyCapacityUnderContention(t *testing.T) {
	const capacity, producers, attempts = 16, 8, 50
	q := newFlatQueue[int](t, capacity)
	var wg sync.WaitGroup
	var accepted, rejected obs.Counter
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				switch err := q.Push(i); {
				case err == nil:
					accepted.Inc()
				case isQueueFull(err):
					rejected.Inc()
				default:
					t.Errorf("unexpected push error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if accepted.Value() != capacity {
		t.Fatalf("accepted %d pushes, want exactly %d", accepted.Value(), capacity)
	}
	if accepted.Value()+rejected.Value() != producers*attempts {
		t.Fatalf("accounting: %d + %d != %d", accepted.Value(), rejected.Value(), producers*attempts)
	}
	drained := 0
	q.Close()
	for {
		if _, ok := q.Pop(); !ok {
			break
		}
		drained++
	}
	if drained != capacity {
		t.Fatalf("drained %d items, want %d", drained, capacity)
	}
}

// TestFIFOCloseWhilePopRace hammers Close against a fleet of blocked and
// racing Pops (run under -race): every consumer must exit, and every item
// pushed before Close must be consumed exactly once.
func TestFIFOCloseWhilePopRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		q := newFlatQueue[int](t, 64)
		const consumers, preload = 6, 10
		for i := 0; i < preload; i++ {
			if err := q.Push(i); err != nil {
				t.Fatal(err)
			}
		}
		var consumed obs.Counter
		var wg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, ok := q.Pop(); !ok {
						return
					}
					consumed.Inc()
				}
			}()
		}
		q.Close() // races with the consumers mid-drain
		wg.Wait()
		if consumed.Value() != preload {
			t.Fatalf("round %d: consumed %d of %d", round, consumed.Value(), preload)
		}
	}
}

func TestFIFOConcurrent(t *testing.T) {
	const producers, items = 8, 200
	q := newFlatQueue[int](t, producers*items)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				if err := q.Push(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	got := make(chan int, producers*items)
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				got <- v
			}
		}()
	}
	wg.Wait()
	q.Close()
	cwg.Wait()
	if len(got) != producers*items {
		t.Fatalf("consumed %d of %d items", len(got), producers*items)
	}
}
