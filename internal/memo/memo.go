// Package memo provides an in-process, content-addressed solve cache
// with singleflight deduplication.
//
// The repo's execution layers all key work by content-derived sha256
// IDs (campaign Unit.ID, the service layer's JobSpec digest), and the
// kernels underneath are bit-deterministic, so a cached result is
// provably byte-identical to a fresh one. The cache therefore stores
// the *marshaled* record bytes: a hit hands back exactly the bytes a
// fresh execution would have produced, and the byte budget is honest
// because the accounted size is the stored payload.
//
// A nil *Cache is a valid no-op engine, mirroring trace.Recorder and
// kernel.Pool: every method is nil-safe behind a single pointer check
// and allocates nothing, so call sites never need their own guard.
package memo

import (
	"io"
	"sync"

	"sdcgmres/internal/obs"
)

// Config sizes a Cache.
type Config struct {
	// MaxBytes bounds the total payload bytes held by the cache. Once
	// the budget is exceeded the least-recently-used entries are
	// evicted until the cache fits. Zero or negative selects
	// DefaultMaxBytes.
	MaxBytes int64
}

// DefaultMaxBytes is the byte budget used when Config.MaxBytes is
// unset: 64 MiB, roughly 30k cached paper-campaign records.
const DefaultMaxBytes = 64 << 20

// Stats is a point-in-time snapshot of the cache counters, suitable
// for /healthz JSON and Prometheus exposition.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Dedups    int64 `json:"dedups"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Warmed    int64 `json:"warmed"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// entry is one cached payload threaded on the intrusive LRU list
// (front = most recently used).
type entry struct {
	key        string
	val        []byte
	prev, next *entry
}

// call is one in-flight singleflight computation. Waiters block on
// done; only a successful leader publishes val.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is a content-addressed LRU byte cache with singleflight
// deduplication. All methods are safe for concurrent use and nil-safe.
type Cache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*entry
	// Intrusive LRU list: head is most recent, tail next for eviction.
	head, tail *entry

	inflight map[string]*call

	hits, misses, dedups, puts, evictions, warmed int64

	reg *obs.Registry
}

// New returns an empty cache bounded by cfg.MaxBytes.
func New(cfg Config) *Cache {
	max := cfg.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	c := &Cache{
		max:      max,
		entries:  make(map[string]*entry),
		inflight: make(map[string]*call),
		reg:      obs.NewRegistry(),
	}
	var s Stats
	c.reg.OnScrape(func() { s = c.Stats() })
	c.reg.CounterFunc("solved_memo_hits_total", "Solve cache hits.", func() float64 { return float64(s.Hits) })
	c.reg.CounterFunc("solved_memo_misses_total", "Solve cache misses.", func() float64 { return float64(s.Misses) })
	c.reg.CounterFunc("solved_memo_dedups_total", "Concurrent identical solves collapsed by singleflight.", func() float64 { return float64(s.Dedups) })
	c.reg.CounterFunc("solved_memo_puts_total", "Payloads stored after fresh executions.", func() float64 { return float64(s.Puts) })
	c.reg.CounterFunc("solved_memo_evictions_total", "Entries evicted under the byte budget.", func() float64 { return float64(s.Evictions) })
	c.reg.CounterFunc("solved_memo_warmed_total", "Entries loaded by warm-from-store replay.", func() float64 { return float64(s.Warmed) })
	c.reg.GaugeFunc("solved_memo_entries", "Entries currently cached.", func() float64 { return float64(s.Entries) })
	c.reg.GaugeFunc("solved_memo_bytes", "Payload bytes currently cached.", func() float64 { return float64(s.Bytes) })
	c.reg.GaugeFunc("solved_memo_max_bytes", "Configured cache byte budget.", func() float64 { return float64(s.MaxBytes) })
	return c
}

// UnitKey namespaces a campaign Unit.ID into the cache key space. Unit
// IDs are already content-derived (sha256 of the unit's coordinates),
// so the same solve maps to the same key across campaigns, journals,
// and fleets.
func UnitKey(unitID string) string { return "unit:" + unitID }

// JobKey namespaces a canonical JobSpec digest into the cache key
// space.
func JobKey(digest string) string { return "job:" + digest }

// Get returns the payload cached under key. The returned slice is
// shared — callers must treat it as immutable (decode, don't mutate).
// A nil cache always misses without counting anything.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touchLocked(e)
	return e.val, true
}

// Contains reports whether key is cached without counting a hit or a
// miss and without disturbing LRU order. It exists for cheap
// pre-checks (e.g. lease filtering) that are immediately followed by a
// real Get.
func (c *Cache) Contains(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put stores val under key, replacing any previous payload, then
// evicts least-recently-used entries until the byte budget holds.
// Payloads larger than the whole budget are not cached. The cache
// takes ownership of val; callers must not mutate it afterwards. A nil
// cache discards the payload.
func (c *Cache) Put(key string, val []byte) {
	c.put(key, val, false)
}

// Warm is Put for startup replay (e.g. store segments): identical
// semantics, but counted under Stats.Warmed instead of Stats.Puts so
// /metrics distinguishes organic fills from warm-up.
func (c *Cache) Warm(key string, val []byte) {
	c.put(key, val, true)
}

func (c *Cache) put(key string, val []byte, warm bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val, warm)
}

func (c *Cache) putLocked(key string, val []byte, warm bool) {
	if int64(len(val)) > c.max {
		return
	}
	if warm {
		c.warmed++
	} else {
		c.puts++
	}
	if e, ok := c.entries[key]; ok {
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.touchLocked(e)
	} else {
		e := &entry{key: key, val: val}
		c.entries[key] = e
		c.pushFrontLocked(e)
		c.bytes += int64(len(val))
	}
	for c.bytes > c.max && c.tail != nil {
		c.evictLocked(c.tail)
	}
}

// Outcome classifies how Do satisfied a call.
type Outcome int

const (
	// Computed: this caller ran fn itself (cache miss, no usable
	// in-flight leader).
	Computed Outcome = iota
	// Hit: the payload was already cached.
	Hit
	// Shared: a concurrent identical call was already computing; this
	// caller waited and shares the leader's successful payload.
	Shared
)

// Do returns the payload for key, computing it at most once across
// concurrent callers. On a cache hit it returns immediately. If an
// identical call is already in flight, Do waits for it: a successful
// leader's payload is shared with every waiter (Outcome Shared); if
// the leader fails, each waiter takes its own turn as leader, so
// failures are never cached or amplified — errors stay per-caller,
// matching the at-least-once retry semantics of the execution layers.
// A successful leader's payload is stored before being returned.
//
// A nil cache degenerates to calling fn directly.
func (c *Cache) Do(key string, fn func() ([]byte, error)) ([]byte, Outcome, error) {
	if c == nil {
		v, err := fn()
		return v, Computed, err
	}
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits++
			c.touchLocked(e)
			v := e.val
			c.mu.Unlock()
			return v, Hit, nil
		}
		if cl, ok := c.inflight[key]; ok {
			c.dedups++
			c.mu.Unlock()
			<-cl.done
			if cl.err == nil {
				return cl.val, Shared, nil
			}
			// Leader failed: loop and either find a fresh cache entry,
			// join a newer leader, or become the leader ourselves.
			continue
		}
		c.misses++
		cl := &call{done: make(chan struct{})}
		c.inflight[key] = cl
		c.mu.Unlock()

		cl.val, cl.err = fn()
		// Retire the in-flight marker and store the payload in one
		// critical section: a caller arriving in between would find
		// neither and run fn again.
		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			c.putLocked(key, cl.val, false)
		}
		c.mu.Unlock()
		close(cl.done)
		return cl.val, Computed, cl.err
	}
}

// Stats returns a snapshot of the counters. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Dedups:    c.dedups,
		Puts:      c.puts,
		Evictions: c.evictions,
		Warmed:    c.warmed,
		Entries:   int64(len(c.entries)),
		Bytes:     c.bytes,
		MaxBytes:  c.max,
	}
}

// WritePrometheus renders the cache counters in the Prometheus text
// exposition format under the solved_memo_* namespace. A nil cache
// writes nothing.
func (c *Cache) WritePrometheus(w io.Writer) {
	if c == nil {
		return
	}
	c.reg.WritePrometheus(w)
}

// --- intrusive LRU list (c.mu held) ---

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) touchLocked(e *entry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

func (c *Cache) evictLocked(e *entry) {
	c.unlinkLocked(e)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.val))
	c.evictions++
}
