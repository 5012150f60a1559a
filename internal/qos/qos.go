// Package qos is the solver service's multi-tenant admission-control and
// scheduling subsystem: per-tenant token-bucket rate limiting with burst
// credit, weighted-fair queuing across tenants (virtual-time WFQ with
// per-tenant bounded sub-queues), priority classes with starvation-proof
// aging, deadline-aware load shedding, and a per-tenant circuit breaker
// that trips to probe-only admission after a run of sandbox failures.
//
// The Scheduler is the service's only admission queue. A service without
// a QoS config runs it from Flat, where it is a bounded FIFO with the same
// order, bound and drain; the scheduler takes an injectable clock so every
// scheduling decision is testable without sleeping.
//
// The paper's Section IV host/guest split treats every job as an untrusted
// guest of a reliable host; this package enforces the same boundary for
// *resources*: a guest may not starve its neighbors (WFQ), flood the host
// (token buckets), waste workers on work it can no longer use (deadline
// shedding), or keep burning capacity after proving itself toxic (circuit
// breaker).
package qos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// DefaultTenant is the tenant key used for jobs that name none.
const DefaultTenant = "default"

// Class is a job's priority band: interactive preempts batch preempts
// background, subject to starvation-proof aging (a job promotes one band
// for every AgingStep it has waited).
type Class int

const (
	// Interactive: latency-sensitive, scheduled first.
	Interactive Class = iota
	// Batch: the default band.
	Batch
	// Background: bulk work, scheduled when nothing above it is runnable.
	Background

	numClasses = 3
)

var classNames = [numClasses]string{"interactive", "batch", "background"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || int(c) >= numClasses {
		return "unknown"
	}
	return classNames[c]
}

// ParseClass maps a wire name to its Class. The empty string is Batch,
// the default band.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "batch":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	case "background":
		return Background, nil
	}
	return 0, fmt.Errorf("qos: unknown priority class %q (want interactive | batch | background)", s)
}

// Reason classifies why admission control rejected or dropped a job.
type Reason string

const (
	// ReasonThrottled: the tenant's token bucket was empty.
	ReasonThrottled Reason = "throttled"
	// ReasonQueueFull: the tenant's bounded sub-queue was at capacity.
	ReasonQueueFull Reason = "queue-full"
	// ReasonDeadline: the estimated queue wait already exceeded the job's
	// deadline budget, so running it could only waste a worker.
	ReasonDeadline Reason = "deadline"
	// ReasonBreaker: the tenant's circuit breaker is open (probe-only
	// admission after a run of sandbox panics/timeouts).
	ReasonBreaker Reason = "breaker"
	// ReasonExpired: the job's deadline passed while it was queued; it was
	// dropped at dequeue, before occupying a worker.
	ReasonExpired Reason = "expired"
)

// ErrClosed: the scheduler no longer admits work (service draining).
var ErrClosed = errors.New("qos: scheduler closed")

// ShedError is an admission rejection with backoff advice. The HTTP layer
// maps it to 429 with a Retry-After header.
type ShedError struct {
	Tenant     string
	Reason     Reason
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("qos: tenant %q shed (%s), retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// RetryAfterSeconds renders the advice as whole seconds for the
// Retry-After header: ceiling, minimum 1.
func (e *ShedError) RetryAfterSeconds() int { return ceilSeconds(e.RetryAfter) }

// ceilSeconds renders a wait as whole seconds: ceiling, minimum 1.
func ceilSeconds(d time.Duration) int {
	return max(int(math.Ceil(d.Seconds())), 1)
}

// Duration is a time.Duration that unmarshals from JSON as either a Go
// duration string ("500ms", "2s") or a number of seconds, so qos config
// files stay human-writable.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(time.Duration(x * float64(time.Second)))
		return nil
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("qos: bad duration %q: %w", x, err)
		}
		*d = Duration(dd)
		return nil
	}
	return fmt.Errorf("qos: duration must be a string or a number of seconds, got %s", b)
}

// MarshalJSON implements json.Marshaler (duration-string form).
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// TenantConfig is one tenant's resource contract.
type TenantConfig struct {
	// Weight is the tenant's WFQ share (default 1). Capacity splits
	// proportionally to weight among backlogged tenants; an idle tenant's
	// share redistributes.
	Weight int `json:"weight,omitempty"`
	// Rate is the token-bucket refill rate in jobs per second
	// (0 = unlimited).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket depth — how many jobs may arrive back-to-back
	// before the rate applies (default ceil(Rate), minimum 1).
	Burst int `json:"burst,omitempty"`
	// QueueDepth bounds the tenant's queued-but-not-running jobs
	// (default: the scheduler-wide QueueDepth).
	QueueDepth int `json:"queue_depth,omitempty"`
}

// withDefaults resolves a tenant's effective limits against the
// scheduler-wide config.
func (t TenantConfig) withDefaults(c Config) TenantConfig {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Burst <= 0 {
		t.Burst = int(math.Ceil(t.Rate))
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	if t.QueueDepth <= 0 {
		t.QueueDepth = c.QueueDepth
	}
	return t
}

// Config is the scheduler's declarative configuration — what
// `solved -qos-config qos.json` loads.
type Config struct {
	// Tenants maps tenant names to their contracts. Jobs from tenants not
	// listed here fall under Default.
	Tenants map[string]TenantConfig `json:"tenants,omitempty"`
	// Default is the contract for unlisted tenants (zero value: weight 1,
	// unlimited rate, scheduler-wide queue depth).
	Default TenantConfig `json:"default,omitempty"`
	// QueueDepth is the per-tenant sub-queue bound for tenants that set
	// none (default 64, matching the engine's single-queue default).
	QueueDepth int `json:"queue_depth,omitempty"`
	// MaxTenants bounds how many tenants *not* named in Tenants may hold
	// live scheduler state at once (default 256; negative disables the
	// bound). Tenant names arrive on the unauthenticated X-Tenant header,
	// so without a bound a client cycling fresh names would grow scheduler
	// memory and Prometheus cardinality without limit. At the cap the
	// scheduler first evicts an idle dynamic tenant (empty queue, quiet
	// breaker, full token bucket); when none is evictable, further
	// unlisted names share the default tenant's state, limits, and
	// accounting until a slot frees up.
	MaxTenants int `json:"max_tenants,omitempty"`
	// AgingStep is the queued wait that promotes a job one priority band,
	// making the class ladder starvation-proof (default 10s; negative
	// disables aging).
	AgingStep Duration `json:"aging_step,omitempty"`
	// BreakerThreshold is the run of sandbox panics/timeouts that trips a
	// tenant's circuit breaker to probe-only admission (default 5;
	// negative disables the breaker).
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// BreakerCooldown is how long a tripped breaker stays open before one
	// probe job is admitted (default 10s).
	BreakerCooldown Duration `json:"breaker_cooldown,omitempty"`
}

// Flat is the config that makes a Scheduler a bounded FIFO of depth jobs:
// no rate limit, no aging and no breaker. A host pushing every job under
// DefaultTenant in the Batch band with no deadline gets one tenant of
// weight 1, whose virtual finish times rise in push order, so admission,
// the bound and pop order are a FIFO's.
func Flat(depth int) Config {
	return Config{QueueDepth: depth, AgingStep: -1, BreakerThreshold: -1}
}

// withDefaults resolves the scheduler-wide defaults.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.AgingStep == 0 {
		c.AgingStep = Duration(10 * time.Second)
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 256
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = Duration(10 * time.Second)
	}
	return c
}

// Validate rejects malformed configs before they reach a scheduler.
func (c Config) Validate() error {
	check := func(name string, t TenantConfig) error {
		if t.Weight < 0 {
			return fmt.Errorf("qos: tenant %q: weight %d must be >= 0", name, t.Weight)
		}
		if t.Rate < 0 || math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
			return fmt.Errorf("qos: tenant %q: rate %g must be a finite value >= 0", name, t.Rate)
		}
		if t.Burst < 0 {
			return fmt.Errorf("qos: tenant %q: burst %d must be >= 0", name, t.Burst)
		}
		if t.QueueDepth < 0 {
			return fmt.Errorf("qos: tenant %q: queue_depth %d must be >= 0", name, t.QueueDepth)
		}
		return nil
	}
	for name, t := range c.Tenants {
		if name == "" {
			return errors.New("qos: tenant name must not be empty")
		}
		if err := check(name, t); err != nil {
			return err
		}
	}
	if err := check("default", c.Default); err != nil {
		return err
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("qos: queue_depth %d must be >= 0", c.QueueDepth)
	}
	return nil
}

// TenantNames returns the configured tenant names, sorted.
func (c Config) TenantNames() []string {
	names := make([]string, 0, len(c.Tenants))
	for n := range c.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseConfig parses and validates a JSON config document. Unknown fields
// are errors, matching the service's strict spec decoding.
func ParseConfig(raw []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("qos: parse config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// LoadConfig reads and parses a qos config file.
func LoadConfig(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	c, err := ParseConfig(raw)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
