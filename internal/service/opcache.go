package service

import (
	"container/list"
	"sync"

	"sdcgmres/internal/obs"
	"sdcgmres/internal/sparse"
)

// maxOperatorBytes bounds the engine's operator cache. It holds two of the
// largest operators the spec caps admit (a 512² Poisson or
// convection-diffusion grid is about 23 MiB of CSR) besides many small
// ones; an operator larger than the whole budget is never cached.
const maxOperatorBytes = 64 << 20

// opCache is the engine's byte-bounded LRU of built operators, keyed by
// MatrixSpec.Key. Jobs solve on the cached *sparse.CSR, which every solver
// only reads; b = A·1, fault hooks, preconditioners and detectors stay
// per job.
//
// There is no singleflight: concurrent cold misses each build, and the
// first build to finish is stored. No job ever waits on another job's
// build, which may belong to a guest the sandbox has abandoned. A build
// that errors or panics stores nothing.
type opCache struct {
	max          int64
	builds, hits *obs.Counter

	mu      sync.Mutex
	bytes   int64
	entries map[string]*list.Element
	lru     list.List // of *operator; front = most recently used
}

type operator struct {
	key  string
	a    *sparse.CSR
	name string
}

func newOpCache(max int64, m *Metrics) *opCache {
	return &opCache{max: max, builds: m.MatrixBuilds, hits: m.MatrixCacheHits, entries: make(map[string]*list.Element)}
}

// operatorBytes is a CSR's storage: row pointers, column indices and
// values, one 8-byte word each.
func operatorBytes(a *sparse.CSR) int64 {
	return 8 * int64(a.Rows()+1+2*a.NNZ())
}

// matrix returns the operator and problem name for a validated spec,
// building and storing the operator on a miss.
func (c *opCache) matrix(m MatrixSpec) (*sparse.CSR, string, error) {
	key := m.Key()
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
		op := el.Value.(*operator)
		return op.a, op.name, nil
	}
	c.builds.Inc()
	a, err := m.Build()
	if err != nil {
		return nil, "", err
	}
	c.add(&operator{key: key, a: a, name: m.Name()})
	return a, m.Name(), nil
}

// add stores op unless it exceeds the budget or a concurrent build of the
// same key was stored first, then evicts least-recently-used operators
// until the budget holds.
func (c *opCache) add(op *operator) {
	size := operatorBytes(op.a)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[op.key]; ok {
		return
	}
	c.entries[op.key] = c.lru.PushFront(op)
	c.bytes += size
	for c.bytes > c.max {
		old := c.lru.Remove(c.lru.Back()).(*operator)
		delete(c.entries, old.key)
		c.bytes -= operatorBytes(old.a)
	}
}
