package service

import (
	"container/list"
	"context"
	"math"
	"sync"

	"sdcgmres/internal/core"
	"sdcgmres/internal/krylov"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/sparse"
)

// maxOperatorBytes bounds the engine's operator cache, operators and their
// failure-free prefixes together. It holds two of the largest operators the
// spec caps admit (a 512² Poisson or convection-diffusion grid is about
// 23 MiB of CSR) besides many small ones; an operator larger than the whole
// budget is never cached, and neither is a prefix that would not fit beside
// its operator.
const maxOperatorBytes = 64 << 20

// opCache is the engine's byte-bounded LRU of built operators, keyed by
// MatrixSpec.Key. Jobs solve on the cached *sparse.CSR, which every solver
// only reads; b = A·1, fault hooks, preconditioners and detectors stay
// per job. Each operator also keeps, per solver configuration, the longest
// failure-free FT-GMRES prefix that a job on it recorded (operator.solve).
//
// There is no singleflight: concurrent cold misses each build, and the
// first build to finish is stored. No job ever waits on another job's
// build, which may belong to a guest the sandbox has abandoned. A build
// that errors or panics stores nothing.
type opCache struct {
	max                         int64
	builds, hits                *obs.Counter
	resumes, restored, recorded *obs.Counter

	mu      sync.Mutex
	bytes   int64
	entries map[string]*list.Element
	lru     list.List // of *operator; front = most recently used
}

// operator is a built matrix. One the cache stored also holds the
// failure-free prefixes of jobs on it, behind the cache's lock; RunSpec's
// operator, and one too large for the cache, has no cache and no prefixes.
type operator struct {
	key   string
	a     *sparse.CSR
	name  string
	cache *opCache // set when stored

	prefixes map[solverKey]*core.Tape
	bytes    int64 // the CSR's and its prefixes' storage
}

// solverKey names the failure-free FT-GMRES solve of one configuration on
// one operator: every solver field that shapes it, defaults applied. The
// detector fields are not part of it; Tape.ResumeAt screens them per job.
type solverKey struct {
	inner, maxOuter int
	tol             float64
	ortho           krylov.OrthoMethod
	policy          krylov.LSQPolicy
	precond         string
	robust          bool
}

func newOpCache(max int64, m *Metrics) *opCache {
	return &opCache{max: max, builds: m.MatrixBuilds, hits: m.MatrixCacheHits,
		resumes: m.JobResumes, restored: m.JobOuterRestored, recorded: m.PrefixRecords,
		entries: make(map[string]*list.Element)}
}

// operatorBytes is a CSR's storage: row pointers, column indices and
// values, one 8-byte word each.
func operatorBytes(a *sparse.CSR) int64 {
	return 8 * int64(a.Rows()+1+2*a.NNZ())
}

// operator returns the cached operator for a validated spec, building and
// storing it on a miss.
func (c *opCache) operator(m MatrixSpec) (*operator, error) {
	key := m.Key()
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
		return el.Value.(*operator), nil
	}
	c.builds.Inc()
	a, err := m.Build()
	if err != nil {
		return nil, err
	}
	return c.add(&operator{key: key, a: a, name: m.Name(), bytes: operatorBytes(a)}), nil
}

// add stores op unless it exceeds the budget or a concurrent build of the
// same key was stored first, which it then returns instead, and evicts
// least-recently-used operators until the budget holds.
func (c *opCache) add(op *operator) *operator {
	if op.bytes > c.max {
		return op
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[op.key]; ok {
		return el.Value.(*operator)
	}
	op.cache = c
	c.entries[op.key] = c.lru.PushFront(op)
	c.bytes += op.bytes
	c.evict()
	return op
}

// evict drops least-recently-used operators, with their prefixes, until
// the budget holds. The caller holds c.mu.
func (c *opCache) evict() {
	for c.bytes > c.max {
		old := c.lru.Remove(c.lru.Back()).(*operator)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
	}
}

// offer stores t as op's prefix for key when it is longer than the stored
// one and fits the budget beside op and its other prefixes, then evicts
// other least-recently-used operators until the budget holds. A complete
// prefix is never replaced, and an operator evicted meanwhile keeps
// nothing.
func (c *opCache) offer(op *operator, key solverKey, t *core.Tape) {
	if t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[op.key]
	if !ok || el.Value != op {
		return
	}
	old := op.prefixes[key]
	grow := t.Bytes()
	if old != nil {
		if old.Complete() || old.Len() >= t.Len() {
			return
		}
		grow -= old.Bytes()
	}
	if op.bytes+grow > c.max {
		return
	}
	if op.prefixes == nil {
		op.prefixes = make(map[solverKey]*core.Tape)
	}
	op.prefixes[key] = t
	op.bytes += grow
	c.bytes += grow
	c.lru.MoveToFront(el)
	c.evict()
	c.recorded.Inc()
}

// solve runs s, built for spec on op, on b = A·1. Outside the cache, and
// with a Recorder, it solves from scratch. Otherwise fresh jobs share
// failure-free prefixes, as campaign units share their problem's tape: a
// job whose own failure-free prefix — the inner solves wholly before its
// fault, or its whole solve without one — is longer than op's prefix for
// its solver configuration records its solve and offers that prefix; any
// other job resumes from op's prefix when Tape.ResumeAt allows it. No job
// runs any solve but its own, and none waits for another.
func (op *operator) solve(ctx context.Context, s *core.Solver, spec *JobSpec, b []float64) (*core.Result, error) {
	c, cfg := op.cache, s.Config()
	if c == nil || cfg.Recorder != nil {
		return s.SolveCtx(ctx, b, nil)
	}
	key := solverKey{
		inner: cfg.Inner.Iterations, maxOuter: cfg.MaxOuter, tol: cfg.OuterTol,
		ortho: cfg.Inner.Ortho, policy: cfg.Inner.Policy, precond: spec.Solver.Precond,
		robust: cfg.Inner.RobustFirstSolve,
	}
	if key.precond == "" {
		key.precond = "none"
	}
	site, own := 0, math.MaxInt
	if spec.Fault != nil {
		site = spec.Fault.At
		own = (site - 1) / cfg.Inner.Iterations
	}
	c.mu.Lock()
	t := op.prefixes[key]
	c.mu.Unlock()
	if own > t.Len() && !t.Complete() {
		res, rec, err := core.SolveRecord(ctx, s, b)
		if err != nil {
			return nil, err
		}
		c.offer(op, key, rec.Prefix(site))
		return res, nil
	}
	if k := t.ResumeAt(s, site); k > 0 {
		c.resumes.Inc()
		c.restored.Add(int64(k))
		return core.SolveResume(ctx, s, b, t, k)
	}
	return s.SolveCtx(ctx, b, nil)
}
