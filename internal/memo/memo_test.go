package memo

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	if _, ok := c.Get("unit:a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("unit:a", []byte("payload-a"))
	v, ok := c.Get("unit:a")
	if !ok || string(v) != "payload-a" {
		t.Fatalf("Get = %q, %v; want payload-a, true", v, ok)
	}
	// Replacement updates the payload and byte accounting.
	c.Put("unit:a", []byte("p2"))
	v, _ = c.Get("unit:a")
	if string(v) != "p2" {
		t.Fatalf("after replace Get = %q", v)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != 2 {
		t.Fatalf("stats after replace: entries=%d bytes=%d, want 1/2", s.Entries, s.Bytes)
	}
	if s.Hits != 2 || s.Misses != 1 || s.Puts != 2 {
		t.Fatalf("stats counters = %+v", s)
	}
}

func TestEvictionUnderByteBudget(t *testing.T) {
	// Budget fits exactly three 10-byte payloads.
	c := New(Config{MaxBytes: 30})
	pay := func(i int) []byte { return []byte(fmt.Sprintf("payload-%02d", i)) } // 10 bytes
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), pay(i))
	}
	if s := c.Stats(); s.Entries != 3 || s.Bytes != 30 || s.Evictions != 0 {
		t.Fatalf("pre-eviction stats = %+v", s)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", pay(3))
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived eviction; LRU order not respected")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	s := c.Stats()
	if s.Entries != 3 || s.Bytes != 30 || s.Evictions != 1 {
		t.Fatalf("post-eviction stats = %+v", s)
	}
	// An oversized payload is refused outright.
	c.Put("huge", make([]byte, 31))
	if c.Contains("huge") {
		t.Fatal("payload larger than the budget was cached")
	}
}

func TestEvictionCascades(t *testing.T) {
	c := New(Config{MaxBytes: 10})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("ab")) // 2 bytes each
	}
	// One 10-byte payload must push out every smaller entry.
	c.Put("big", make([]byte, 10))
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != 10 || s.Evictions != 5 {
		t.Fatalf("cascade stats = %+v", s)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	const callers = 16
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]Outcome, callers)
	vals := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, how, err := c.Do("unit:x", func() ([]byte, error) {
				calls.Add(1)
				<-release // hold the leader so everyone else piles up
				return []byte("result"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = how
			vals[i] = string(v)
		}(i)
	}
	// Open the gate only once every other caller has joined the leader's
	// flight; a caller that arrived after the leader finished would count
	// as a hit, not a dedup.
	for c.Stats().Dedups < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	var computed, shared int
	for i := range results {
		if vals[i] != "result" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		switch results[i] {
		case Computed:
			computed++
		case Shared, Hit:
			shared++
		}
	}
	if computed != 1 {
		t.Fatalf("computed=%d, want exactly 1 leader", computed)
	}
	if s := c.Stats(); s.Dedups == 0 {
		t.Fatalf("no dedups counted: %+v", s)
	}
}

func TestSingleflightLeaderFailureIsNotShared(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	boom := errors.New("boom")
	var calls atomic.Int64
	// First leader fails; error must not be cached.
	_, _, err := c.Do("k", func() ([]byte, error) { calls.Add(1); return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Contains("k") {
		t.Fatal("failure was cached")
	}
	// Next caller retries and succeeds.
	v, how, err := c.Do("k", func() ([]byte, error) { calls.Add(1); return []byte("ok"), nil })
	if err != nil || string(v) != "ok" || how != Computed {
		t.Fatalf("retry: v=%q how=%v err=%v", v, how, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2", calls.Load())
	}
	// Third call is a plain hit.
	if _, how, _ := c.Do("k", nil); how != Hit {
		t.Fatalf("how = %v, want Hit", how)
	}
}

func TestDoConcurrentLeaderFailureWaitersRetry(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	boom := errors.New("boom")
	var calls atomic.Int64
	var wg sync.WaitGroup
	var successes atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do("k", func() ([]byte, error) {
				if calls.Add(1) == 1 {
					return nil, boom // only the very first leader fails
				}
				return []byte("ok"), nil
			})
			if err == nil && string(v) == "ok" {
				successes.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := successes.Load(); got != 7 {
		t.Fatalf("successes = %d, want 7 (one caller carries the failure)", got)
	}
	if !c.Contains("k") {
		t.Fatal("successful retry was not cached")
	}
}

func TestNilCacheNoOp(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("k", []byte("v"))
	c.Warm("k", []byte("v"))
	if c.Contains("k") {
		t.Fatal("nil cache contains")
	}
	v, how, err := c.Do("k", func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || string(v) != "fresh" || how != Computed {
		t.Fatalf("nil Do: v=%q how=%v err=%v", v, how, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v, want zero", s)
	}
	c.WritePrometheus(io.Discard)
}

// TestNilCacheZeroAlloc proves the nil-cache fast paths cost one
// pointer check and zero allocations, so every call site can stay
// unconditional.
func TestNilCacheZeroAlloc(t *testing.T) {
	var c *Cache
	key := "unit:0123456789abcdef"
	val := []byte("payload")
	if n := testing.AllocsPerRun(100, func() {
		c.Get(key)
		c.Put(key, val)
		c.Contains(key)
		c.Stats()
	}); n != 0 {
		t.Fatalf("nil-cache ops allocated %v times per run, want 0", n)
	}
}

func TestWarmCountsSeparately(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Warm("a", []byte("1"))
	c.Warm("b", []byte("2"))
	c.Put("c", []byte("3"))
	s := c.Stats()
	if s.Warmed != 2 || s.Puts != 1 || s.Entries != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := New(Config{MaxBytes: 128})
	c.Put("a", []byte("1"))
	c.Get("a")
	c.Get("zzz")
	var b strings.Builder
	c.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"solved_memo_hits_total 1",
		"solved_memo_misses_total 1",
		"solved_memo_puts_total 1",
		"solved_memo_entries 1",
		"solved_memo_bytes 1",
		"solved_memo_max_bytes 128",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
