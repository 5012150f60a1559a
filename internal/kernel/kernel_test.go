package kernel_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sdcgmres/internal/kernel"
	"sdcgmres/internal/sandbox"
	"sdcgmres/internal/vec"
)

// sizes crosses every boundary that matters: empty, tiny, one chunk, just
// past a chunk, just below/at/above the parallel threshold, and a large
// many-chunk case with a ragged tail.
var sizes = []int{0, 1, 7, 4096, 4097, 32767, 32768, 32769, 100001}

var widths = []int{1, 2, 4, 8}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// pools returns a nil pool plus one pool per width; done closes them.
func pools(t *testing.T) []*kernel.Pool {
	t.Helper()
	ps := []*kernel.Pool{nil}
	for _, w := range widths {
		p := kernel.New(w)
		t.Cleanup(p.Close)
		ps = append(ps, p)
	}
	return ps
}

// TestDotMatchesVecBitwise is the engine's core contract: kernel.Dot equals
// vec.Dot bit-for-bit at every size and every worker count, so threading a
// pool through a solver cannot change a single iterate.
func TestDotMatchesVecBitwise(t *testing.T) {
	ps := pools(t)
	for _, n := range sizes {
		x, y := randVec(n, 1), randVec(n, 2)
		want := vec.Dot(x, y)
		for _, p := range ps {
			got := kernel.Dot(p, x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d workers=%d: Dot = %v (%x), want %v (%x)",
					n, p.Workers(), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestNorm2WorkerInvariance: above the threshold the chunked fold is a fixed
// function of the length — every worker count (nil pool included) must agree
// bit-for-bit, and below the threshold it must equal vec.Norm2 exactly.
func TestNorm2WorkerInvariance(t *testing.T) {
	ps := pools(t)
	for _, n := range sizes {
		x := randVec(n, 3)
		want := kernel.Norm2(nil, x)
		if n < kernel.ParallelThreshold {
			if sw := vec.Norm2(x); math.Float64bits(want) != math.Float64bits(sw) {
				t.Fatalf("n=%d: below-threshold Norm2 = %v, want serial %v", n, want, sw)
			}
		}
		for _, p := range ps {
			got := kernel.Norm2(p, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d workers=%d: Norm2 = %x, want %x",
					n, p.Workers(), math.Float64bits(got), math.Float64bits(want))
			}
		}
		// And it must actually be the norm.
		if n > 0 {
			ref := math.Sqrt(vec.DotKahan(x, x))
			if math.Abs(want-ref) > 1e-12*ref {
				t.Fatalf("n=%d: Norm2 = %v, reference %v", n, want, ref)
			}
		}
	}
}

// TestNorm2OverflowRescaling: entries near math.MaxFloat64 whose squares
// overflow must still produce a finite, correct norm through the parallel
// rescaled recurrence (the dnrm2 property vec.Norm2 has always had).
func TestNorm2OverflowRescaling(t *testing.T) {
	n := kernel.ParallelThreshold + 123
	huge := math.MaxFloat64 / 1e5
	x := make([]float64, n)
	for i := range x {
		x[i] = huge
	}
	want := huge * math.Sqrt(float64(n))
	ps := pools(t)
	var first float64
	for i, p := range ps {
		got := kernel.Norm2(p, x)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("workers=%d: Norm2 overflowed: %v", p.Workers(), got)
		}
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("workers=%d: Norm2 = %v, want %v", p.Workers(), got, want)
		}
		if i == 0 {
			first = got
		} else if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("workers=%d: Norm2 differs between worker counts", p.Workers())
		}
	}
}

// TestNorm2Denormals: a vector of subnormals must not flush to zero (naive
// squaring underflows to 0; the rescaled recurrence keeps the value).
func TestNorm2Denormals(t *testing.T) {
	n := kernel.ParallelThreshold + 7
	tiny := 5e-324 // smallest positive subnormal
	x := make([]float64, n)
	for i := range x {
		x[i] = tiny
	}
	ps := pools(t)
	var first float64
	for i, p := range ps {
		got := kernel.Norm2(p, x)
		if got == 0 {
			t.Fatalf("workers=%d: denormal norm flushed to zero", p.Workers())
		}
		if i == 0 {
			first = got
		} else if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("workers=%d: denormal Norm2 differs between worker counts", p.Workers())
		}
	}
}

// TestDotKahanWorkerInvariance: the compensated dot must agree across every
// worker count, and equal vec.DotKahan below the threshold.
func TestDotKahanWorkerInvariance(t *testing.T) {
	ps := pools(t)
	for _, n := range sizes {
		x, y := randVec(n, 5), randVec(n, 6)
		want := kernel.DotKahan(nil, x, y)
		if n < kernel.ParallelThreshold {
			if sw := vec.DotKahan(x, y); math.Float64bits(want) != math.Float64bits(sw) {
				t.Fatalf("n=%d: below-threshold DotKahan = %v, want %v", n, want, sw)
			}
		}
		for _, p := range ps {
			if got := kernel.DotKahan(p, x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d workers=%d: DotKahan differs", n, p.Workers())
			}
		}
	}
}

// TestAxpyScaleMatchVec: element-wise kernels are bit-identical to their vec
// counterparts at every size and worker count.
func TestAxpyScaleMatchVec(t *testing.T) {
	ps := pools(t)
	for _, n := range sizes {
		x := randVec(n, 7)
		for _, p := range ps {
			y1, y2 := randVec(n, 8), randVec(n, 8)
			vec.Axpy(1.25, x, y1)
			kernel.Axpy(p, 1.25, x, y2)
			for i := range y1 {
				if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
					t.Fatalf("n=%d workers=%d: Axpy differs at %d", n, p.Workers(), i)
				}
			}
			vec.Scale(0.75, y1)
			kernel.Scale(p, 0.75, y2)
			for i := range y1 {
				if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
					t.Fatalf("n=%d workers=%d: Scale differs at %d", n, p.Workers(), i)
				}
			}
		}
	}
}

// TestPoolCloseSafety: kernels called after Close answer sequentially with
// the same bits, and double Close is a no-op.
func TestPoolCloseSafety(t *testing.T) {
	p := kernel.New(4)
	n := kernel.ParallelThreshold + 10
	x, y := randVec(n, 9), randVec(n, 10)
	want := kernel.Dot(nil, x, y)
	if got := kernel.Dot(p, x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatal("pre-close Dot differs")
	}
	p.Close()
	p.Close()
	if got := kernel.Dot(p, x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatal("post-close Dot differs")
	}
	var nilPool *kernel.Pool
	nilPool.Close() // must not panic
	if nilPool.Workers() != 1 {
		t.Fatal("nil pool width != 1")
	}
}

// TestPoolDrainUnderSandboxDeadline is the abandoned-guest scenario: a
// sandboxed solve spinning on pool kernels hits its wall-clock budget, the
// host moves on (and may even Close the pool) while the guest drains. The
// pool must stay panic-free and other users must keep computing correctly.
func TestPoolDrainUnderSandboxDeadline(t *testing.T) {
	p := kernel.New(4)
	defer p.Close()
	n := kernel.ParallelThreshold * 4
	x, y := randVec(n, 11), randVec(n, 12)
	want := kernel.Dot(nil, x, y)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	guestDone := make(chan struct{})
	rep := sandbox.RunCtx(ctx, 20*time.Millisecond, func() error {
		defer close(guestDone)
		for ctx.Err() == nil {
			if got := kernel.Dot(p, x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Error("guest Dot differs")
				return nil
			}
		}
		return ctx.Err()
	})
	if rep.Outcome == sandbox.OK {
		t.Fatalf("sandbox outcome = %v, want a deadline outcome", rep.Outcome)
	}
	// The host keeps using the pool while the guest may still be draining.
	for i := 0; i < 10; i++ {
		if got := kernel.Dot(p, x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatal("host Dot differs during guest drain")
		}
	}
	// Close while the guest may be mid-dispatch: must not panic, and the
	// pool must still answer (sequentially) afterwards.
	p.Close()
	select {
	case <-guestDone:
	case <-time.After(5 * time.Second):
		t.Fatal("guest never drained")
	}
	if got := kernel.Dot(p, x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatal("post-close Dot differs")
	}
}

// TestStatsCount: parallel dispatches and sequential fallbacks land in the
// right counters.
func TestStatsCount(t *testing.T) {
	p := kernel.New(2)
	defer p.Close()
	small := randVec(64, 13)
	big := randVec(kernel.ParallelThreshold+1, 14)
	kernel.Dot(p, small, small) // below threshold: fallback
	kernel.Dot(p, big, big)     // parallel dispatch
	s := p.Stats()
	if s.Workers != 2 {
		t.Fatalf("Stats.Workers = %d, want 2", s.Workers)
	}
	if s.SeqFallbacks == 0 {
		t.Fatal("no sequential fallback counted")
	}
	if s.Dispatches == 0 || s.Chunks == 0 {
		t.Fatalf("no parallel dispatch counted: %+v", s)
	}
	var total kernel.Stats
	total.Add(s)
	total.Add((*kernel.Pool)(nil).Stats())
	if total != s {
		t.Fatalf("Add with nil-pool stats changed the total: %+v != %+v", total, s)
	}
}

// TestSplit: splitting a kernel budget among slots gives every slot a nil
// (sequential) pool at budget 0 and whenever budget < 2·slots, and pooled
// slots together never take more than the budget.
func TestSplit(t *testing.T) {
	for budget := -1; budget <= 9; budget++ {
		for slots := 0; slots <= 5; slots++ {
			pools := kernel.Split(budget, slots)
			if len(pools) != slots {
				t.Fatalf("Split(%d, %d): %d pools", budget, slots, len(pools))
			}
			for _, p := range pools {
				if sequential := budget < 2*slots; (p == nil) != sequential {
					t.Fatalf("Split(%d, %d): pool %v, want nil = %v", budget, slots, p, sequential)
				}
				if p != nil && (p.Workers() != budget/slots || slots*p.Workers() > budget) {
					t.Fatalf("Split(%d, %d): %d slots of width %d", budget, slots, slots, p.Workers())
				}
				p.Close()
			}
		}
	}
}
