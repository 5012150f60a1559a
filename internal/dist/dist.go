// Package dist fans a compiled fault-injection campaign out across a fleet
// of workers over HTTP: the wire protocol in front of internal/campaign's
// lease Coordinator.
//
// The paper's Section VII campaign is an embarrassingly parallel unit grid
// (one injected SDC at every inner-iteration site × fault magnitudes × MGS
// steps × problems) that internal/campaign compiles into deterministic
// units with content-derived IDs and executes through one
// campaign.Coordinator. The local campaign.Runner drains it with
// in-process goroutines; this package lets remote workers drain it too,
// with the single-process guarantees intact:
//
//   - The coordinator owns the journal. It hands out *leases* of unit
//     batches; a lease stays valid only while its worker heartbeats, and an
//     expired lease's units are requeued for other workers — dead-worker
//     detection by missed heartbeats.
//   - Workers fetch the campaign manifest, compile it locally (unit IDs
//     are content-derived, so every process compiles the identical unit
//     list; problem calibration is deterministic, so remotely measured
//     points equal locally measured ones), execute leased units under the
//     sandbox, and report records back.
//   - The coordinator trusts nothing: a returned record must belong to the
//     campaign, its unit fields must hash to its claimed ID
//     (campaign.Unit.VerifyID), and its point must target the unit's site.
//     Valid records are journaled append-only; duplicates — the footprint
//     of at-least-once execution after a lease expiry — are acknowledged
//     but not re-journaled, which is what makes redundant execution
//     harmless.
//   - Aggregation happens only at the coordinator, through the exact
//     campaign.Aggregate path, so figure CSVs from a distributed run are
//     byte-identical to the single-process ones.
//
// A Host wraps one coordinator at a time behind the wire protocol and
// sequences successive campaigns to a connected fleet via a generation
// counter, so one fleet can serve a whole paperfigs run (many small
// campaigns) without re-joining. After Close, WaitClosed keeps the caller
// serving until the workers have heard the closed state and exit cleanly.
//
// Wire protocol (all bodies JSON):
//
//	GET  /v1/dist/campaign[?worker=NAME] → CampaignInfo (manifest + lease TTL)
//	GET  /v1/dist/status                 → StatusInfo (stats, active leases)
//	POST /v1/leases                      ClaimRequest → ClaimResponse
//	POST /v1/leases/{id}/heartbeat       HeartbeatRequest → HeartbeatResponse | 410
//	POST /v1/leases/{id}/records         CompleteRequest → CompleteResponse
package dist

import (
	"errors"

	"sdcgmres/internal/campaign"
)

// Campaign states reported by GET /v1/dist/campaign.
const (
	// StateIdle: the host is up but no campaign is currently exposed;
	// workers poll until one starts.
	StateIdle = "idle"
	// StateRunning: a campaign is live; workers claim leases against the
	// reported generation.
	StateRunning = "running"
	// StateClosed: the host is done for good; workers drain and exit.
	StateClosed = "closed"
)

// Protocol errors. A heartbeat on an expired or unknown lease answers 410
// and surfaces to the worker as campaign.ErrLeaseGone.
var (
	// ErrClosed: the host has shut down and accepts no further campaigns.
	ErrClosed = errors.New("dist: host closed")
	// ErrBusy: the host is already serving a campaign.
	ErrBusy = errors.New("dist: host already serving a campaign")
)

// CoordinatorConfig parameterizes the coordinator behind each campaign a
// Host serves.
type CoordinatorConfig = campaign.CoordinatorConfig

// CampaignInfo is what workers poll to discover work.
type CampaignInfo struct {
	// Generation increments for every campaign the host serves. Workers
	// recompile when it changes.
	Generation int `json:"generation"`
	// State is one of StateIdle, StateRunning, StateClosed.
	State string `json:"state"`
	// Manifest is the campaign to compile (present while running). Unit
	// IDs are content-derived, so compiling it remotely reproduces the
	// coordinator's unit list exactly.
	Manifest *campaign.Manifest `json:"manifest,omitempty"`
	// LeaseTTLMS is the heartbeat deadline workers must beat.
	LeaseTTLMS int64 `json:"lease_ttl_ms,omitempty"`
	// CorrelationID is the running campaign's fleet-wide correlation ID.
	// Workers adopt it for their own logs, trace events and wire calls, so
	// one ID follows the campaign across every process that touches it.
	CorrelationID string `json:"correlation_id,omitempty"`
}

// ClaimRequest asks the coordinator for a lease of units.
type ClaimRequest struct {
	// Worker identifies the claimant in leases, logs and metrics.
	Worker string `json:"worker"`
	// Generation is the campaign the worker compiled. A stale generation
	// yields no lease and the current generation in the response.
	Generation int `json:"generation"`
	// Max caps the units granted (0 = coordinator's batch size).
	Max int `json:"max,omitempty"`
}

// ClaimResponse answers a claim.
type ClaimResponse struct {
	// Generation is the host's current campaign generation.
	Generation int `json:"generation"`
	// Done: every unit of this generation is journaled; nothing further
	// will ever be granted for it.
	Done bool `json:"done,omitempty"`
	// Closed: the host is shutting down; the worker should exit.
	Closed bool `json:"closed,omitempty"`
	// Lease is the granted batch. Nil with neither Done nor Closed set
	// means "nothing to grant right now, back off and retry" (all
	// remaining units are leased out, or the coordinator is draining).
	Lease *campaign.Lease `json:"lease,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse confirms a renewal.
type HeartbeatResponse struct {
	// TTLMS is the renewed time-to-live.
	TTLMS int64 `json:"ttl_ms"`
}

// CompleteRequest reports finished units of a lease.
type CompleteRequest struct {
	Worker string `json:"worker"`
	// Records are journal records produced by campaign.ExecuteUnitPooled.
	Records []campaign.Record `json:"records"`
}

// StatusInfo answers GET /v1/dist/status.
type StatusInfo struct {
	Generation int            `json:"generation"`
	State      string         `json:"state"`
	Stats      campaign.Stats `json:"stats"`
}
