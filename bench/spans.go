package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval in Unix nanoseconds.
type span struct{ start, end int64 }

func spanMS(s []span) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.end-x.start) / 1e6
	}
	return out
}

func totalNS(s []span) int64 {
	var t int64
	for _, x := range s {
		t += x.end - x.start
	}
	return t
}

// unionNS is the time within [lo, hi] covered by at least one span.
func unionNS(s []span, lo, hi int64) int64 {
	c := make([]span, 0, len(s))
	for _, x := range s {
		if x.start < lo {
			x.start = lo
		}
		if x.end > hi {
			x.end = hi
		}
		if x.end > x.start {
			c = append(c, x)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].start < c[j].start })
	var total, curS, curE int64
	for i, x := range c {
		switch {
		case i == 0:
			curS, curE = x.start, x.end
		case x.start > curE:
			total += curE - curS
			curS, curE = x.start, x.end
		case x.end > curE:
			curE = x.end
		}
	}
	if len(c) > 0 {
		total += curE - curS
	}
	return total
}

// timingRT is an http.RoundTripper that times every call a client makes,
// from sending the request until the caller closes the response body, and
// groups the timings by route.
type timingRT struct {
	base  http.RoundTripper
	route func(*http.Request) string

	mu    sync.Mutex
	calls []rtCall
}

// rtCall is one timed round-trip.
type rtCall struct {
	route string
	span
}

func newTimingRT(base http.RoundTripper, route func(*http.Request) string) *timingRT {
	return &timingRT{base: base, route: route}
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.record(t.route(req), start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.record(t.route(req), start) }}
	return resp, nil
}

func (t *timingRT) record(route string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, rtCall{route, span{start.UnixNano(), end.UnixNano()}})
	t.mu.Unlock()
}

// since returns the calls that started at or after t0.
func (t *timingRT) since(t0 int64) []rtCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []rtCall
	for _, c := range t.calls {
		if c.start >= t0 {
			out = append(out, c)
		}
	}
	return out
}

// timedBody fires done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// distRoute names a dist wire-protocol call.
func distRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/records"):
		return "complete"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case p == "/v1/leases":
		return "claim"
	case p == "/v1/dist/campaign":
		return "poll"
	}
	return "other"
}

// loopbackTransport is one keep-alive connection to a loopback server.
func loopbackTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}
