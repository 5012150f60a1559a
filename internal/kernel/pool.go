// Package kernel is the shared-memory parallel compute engine for the
// solver hot path: a persistent worker pool executing CSR SpMV partitions
// and BLAS-1 kernels (dot, norm, Kahan dot, axpy, scale) without per-call
// goroutine spawns. It is the only code in the repository that runs a
// kernel in parallel: the unpooled vec and sparse kernels are serial at
// every size.
//
// Determinism is the design constraint, inherited from the SDC experiments
// this repository reproduces: a fault-injection campaign must attribute
// every perturbed bit to the injected fault, so parallel execution may not
// perturb rounding. Every kernel here is therefore a pure function of its
// inputs — the pool's worker count changes only how fast the answer
// arrives, never which answer:
//
//   - Reductions decompose into fixed vec.ChunkSize chunks (boundaries
//     depend only on the length) and fold per-chunk partials in index
//     order. Below ParallelThreshold they delegate to the serial vec
//     kernels, so small problems — including every paper-scale figure
//     campaign — compute bit-identically to the serial code.
//   - SpMV partitions are row-disjoint, so each output element is written
//     by exactly one worker with serial rounding; any partition (including
//     the nnz-balanced one from PartitionNNZ) yields the serial result.
//   - Element-wise maps (axpy, scale) have no cross-element rounding at
//     all.
//
// A nil *Pool is valid and sequential at every size: every method works on
// it behind one branch, so call sites thread a possibly-nil pool through
// unconditionally, exactly like a nil *trace.Recorder.
package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sdcgmres/internal/trace"
)

// Pool is a persistent worker pool plus an optional flight recorder. The
// pool-owning state is shared between handles, so WithRecorder hands out a
// traced view without duplicating workers or counters.
type Pool struct {
	st  *state
	rec *trace.Recorder
}

// state is the shared pool machinery behind every handle.
type state struct {
	workers int
	jobs    chan *job
	// done, when closed, releases the helper goroutines and unblocks any
	// dispatch mid-send. jobs itself is never closed, so a Run racing
	// Close — an abandoned sandbox guest, say — can never panic on a
	// closed channel; it just finishes its work on the caller.
	done chan struct{}

	closeOnce sync.Once
	closed    atomic.Bool

	// Lifetime counters, exported via Stats for /metrics gauges.
	dispatches atomic.Int64 // parallel dispatches (a helper was woken)
	chunks     atomic.Int64 // work items executed across all dispatches
	fallbacks  atomic.Int64 // calls answered on the sequential fast path
}

// job is one dispatch: workers (and the submitting caller) claim part
// indices with an atomic counter until the range is exhausted. Claim order
// is racy by design — every kernel writes either disjoint outputs or an
// index-addressed partial slice, so ordering never reaches the arithmetic.
type job struct {
	f     func(part int)
	next  atomic.Int64
	parts int64
	wg    sync.WaitGroup
}

func (j *job) work() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.parts {
			return
		}
		j.f(int(c))
	}
}

// New builds a pool with the given number of workers (<= 0 means
// runtime.GOMAXPROCS(0)). The submitting goroutine always participates in
// its own dispatches, so a pool of w workers starts w−1 helper goroutines
// and New(1) starts none — a 1-worker pool is pure function-call overhead.
// Close releases the helpers; a pool left open merely parks w−1 goroutines
// on a channel.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := &state{workers: workers}
	if workers > 1 {
		st.jobs = make(chan *job)
		st.done = make(chan struct{})
		for i := 0; i < workers-1; i++ {
			go func() {
				for {
					select {
					case j := <-st.jobs:
						j.work()
						j.wg.Done()
					case <-st.done:
						return
					}
				}
			}()
		}
	}
	return &Pool{st: st}
}

// Split divides a kernel budget among slots that run at once: each slot
// gets a pool of max(1, budget/slots) workers, nil (sequential kernels)
// when that width is 1, so slots × width never exceeds the budget of a
// pooled split. A budget <= 0 means sequential kernels in every slot. The
// caller closes the pools.
func Split(budget, slots int) []*Pool {
	pools := make([]*Pool, slots)
	if slots > 0 && budget/slots > 1 {
		for i := range pools {
			pools[i] = New(budget / slots)
		}
	}
	return pools
}

// Close stops the helper goroutines; kernels invoked after (or racing)
// Close run sequentially on the caller and still return the same bits.
// In-flight dispatches finish: parts already claimed by a helper complete
// before it exits, and the submitting caller always drains whatever
// remains. Safe to call twice, concurrently, and on a nil pool.
func (p *Pool) Close() {
	if p == nil || p.st == nil || p.st.jobs == nil {
		return
	}
	p.st.closeOnce.Do(func() {
		p.st.closed.Store(true)
		close(p.st.done)
	})
}

// Workers reports the pool's parallel width; a nil pool is width 1.
func (p *Pool) Workers() int {
	if p == nil || p.st == nil {
		return 1
	}
	return p.st.workers
}

// WithRecorder returns a handle on the same pool (same workers, same
// counters) whose parallel dispatches additionally emit kernel-op trace
// events to rec. A nil rec (or nil pool) returns p unchanged, so the call
// is safe to make unconditionally.
func (p *Pool) WithRecorder(rec *trace.Recorder) *Pool {
	if p == nil || p.st == nil || rec == nil {
		return p
	}
	return &Pool{st: p.st, rec: rec}
}

// Stats is a snapshot of the pool's lifetime activity.
type Stats struct {
	// Workers is the configured parallel width.
	Workers int
	// Dispatches counts parallel dispatches (sequential fast-path calls
	// excluded).
	Dispatches int64
	// Chunks counts work items executed across all dispatches.
	Chunks int64
	// SeqFallbacks counts kernel calls answered entirely on the sequential
	// fast path (below threshold, or a 1-wide pool on an indivisible job).
	SeqFallbacks int64
}

// Add accumulates another pool's snapshot (for fleet-wide gauges).
func (s *Stats) Add(o Stats) {
	s.Workers += o.Workers
	s.Dispatches += o.Dispatches
	s.Chunks += o.Chunks
	s.SeqFallbacks += o.SeqFallbacks
}

// Stats snapshots the pool's counters; a nil pool reports zeroes.
func (p *Pool) Stats() Stats {
	if p == nil || p.st == nil {
		return Stats{}
	}
	return Stats{
		Workers:      p.st.workers,
		Dispatches:   p.st.dispatches.Load(),
		Chunks:       p.st.chunks.Load(),
		SeqFallbacks: p.st.fallbacks.Load(),
	}
}

// seqFallback books one sequential fast-path call (nil-safe).
func (p *Pool) seqFallback() {
	if p != nil && p.st != nil {
		p.st.fallbacks.Add(1)
	}
}

// Run executes f(0), …, f(parts−1) on the pool and returns when all parts
// finished. The caller participates as a worker, so the dispatch never
// blocks waiting for a free helper. Part-to-worker assignment is dynamic
// (atomic claim), which is what makes nnz-imbalanced partitions cheap to
// tolerate; callers must ensure f's parts touch disjoint output state.
// On a nil or 1-wide pool the parts run sequentially in index order.
func (p *Pool) Run(op string, n, parts int, f func(part int)) {
	if parts <= 1 || p == nil || p.st == nil || p.st.workers <= 1 || p.st.jobs == nil || p.st.closed.Load() {
		p.seqFallback()
		for i := 0; i < parts; i++ {
			f(i)
		}
		return
	}
	p.st.dispatches.Add(1)
	p.st.chunks.Add(int64(parts))
	p.rec.KernelOp(op, n, parts)
	j := &job{f: f, parts: int64(parts)}
	helpers := p.st.workers - 1
	if helpers > parts-1 {
		helpers = parts - 1
	}
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case p.st.jobs <- j:
		case <-p.st.done:
			// Pool closed mid-dispatch: the un-woken helpers will never
			// arrive; release their waits and let the caller finish alone.
			for ; i < helpers; i++ {
				j.wg.Done()
			}
		}
	}
	j.work()
	j.wg.Wait()
}
