// Package dist fans a compiled fault-injection campaign out across a fleet
// of workers over HTTP — the distributed execution layer on top of
// internal/campaign.
//
// The paper's Section VII campaign is an embarrassingly parallel unit grid
// (one injected SDC at every inner-iteration site × fault magnitudes × MGS
// steps × problems) that internal/campaign already compiles into
// deterministic units with content-derived IDs. This package splits that
// grid across machines while keeping the single-process guarantees:
//
//   - A Coordinator owns the journal. It hands out *leases* of unit
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
// A Host wraps one Coordinator at a time behind the wire protocol and
// sequences successive campaigns to a connected fleet via a generation
// counter, so one fleet can serve a whole paperfigs run (many small
// campaigns) without re-joining.
//
// Wire protocol (all bodies JSON):
//
//	GET  /v1/dist/campaign               → CampaignInfo (manifest + lease TTL)
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

// Protocol errors.
var (
	// ErrLeaseGone: the lease expired (its units were requeued) or never
	// existed. Workers may keep reporting finished records — completion is
	// idempotent — but should stop working the batch.
	ErrLeaseGone = errors.New("dist: lease gone")
	// ErrClosed: the host has shut down and accepts no further campaigns.
	ErrClosed = errors.New("dist: host closed")
	// ErrBusy: the host is already serving a campaign.
	ErrBusy = errors.New("dist: host already serving a campaign")
)

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

// Lease is a batch of units granted to one worker until it expires.
type Lease struct {
	// ID names the lease in heartbeat and completion calls.
	ID string `json:"id"`
	// Units are the experiments to run.
	Units []campaign.Unit `json:"units"`
	// TTLMS is how long the lease lives without a heartbeat renewal.
	TTLMS int64 `json:"ttl_ms"`
	// Remaining is the coordinator's unleased backlog after this grant.
	Remaining int `json:"remaining"`
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
	Lease *Lease `json:"lease,omitempty"`
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

// CompleteResponse acknowledges a completion report.
type CompleteResponse struct {
	// Accepted counts records journaled or recognized as duplicates.
	Accepted int `json:"accepted"`
	// Rejected counts records that failed validation (not part of the
	// campaign, ID hash mismatch, malformed outcome).
	Rejected int `json:"rejected"`
	// Done: the campaign completed with this report.
	Done bool `json:"done,omitempty"`
}

// LeaseInfo is one active lease in a status snapshot.
type LeaseInfo struct {
	ID     string `json:"id"`
	Worker string `json:"worker"`
	// Units is the lease's outstanding (not yet completed) unit count.
	Units int `json:"units"`
	// ExpiresInMS is the time left before the lease is requeued.
	ExpiresInMS int64 `json:"expires_in_ms"`
}

// Stats is a point-in-time snapshot of a coordinator.
type Stats struct {
	// Total is the campaign's unit count.
	Total int `json:"total"`
	// Done counts journaled units (including those resumed from the
	// journal at startup).
	Done int `json:"done"`
	// Pending counts units waiting to be leased.
	Pending int `json:"pending"`
	// Leased counts units currently out on active leases.
	Leased int `json:"leased"`
	// Draining: the coordinator grants no further leases.
	Draining bool `json:"draining,omitempty"`
	// Leases lists the active leases.
	Leases []LeaseInfo `json:"leases,omitempty"`
}

// Backlog is the incomplete-unit count — what a fleet health probe wants.
func (s Stats) Backlog() int { return s.Pending + s.Leased }

// StatusInfo answers GET /v1/dist/status.
type StatusInfo struct {
	Generation int    `json:"generation"`
	State      string `json:"state"`
	Stats      Stats  `json:"stats"`
}
