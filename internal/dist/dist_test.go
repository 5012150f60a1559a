package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdcgmres/internal/campaign"
)

// aggregateCSV renders every series of a record set, concatenated in the
// campaign's deterministic series order — the byte-identity probe.
func aggregateCSV(t *testing.T, c *campaign.Compiled, have map[string]campaign.Record) []byte {
	t.Helper()
	series, err := c.Aggregate(have)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, sr := range series {
		if !sr.Complete() {
			t.Fatalf("series %s incomplete: %d missing", sr.Key, sr.Missing)
		}
		if err := sr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// startWorkers launches n in-process workers against a coordinator URL,
// returning them plus a stop function that cancels and waits.
func startWorkers(t *testing.T, url string, n int) ([]*Worker, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workers := make([]*Worker, n)
	for i := range workers {
		w := NewWorker(WorkerConfig{
			Coordinator: url,
			Name:        fmt.Sprintf("w%d", i+1),
			Problems:    sharedCache,
			Poll:        10 * time.Millisecond,
			Backoff:     Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		})
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker %d: %v", i+1, err)
			}
		}()
	}
	return workers, func() { cancel(); wg.Wait() }
}

// TestFleetByteIdenticalCSV is the subsystem's core guarantee: a campaign
// split across two wire-connected workers aggregates to CSV bytes identical
// to the single-process Runner's.
func TestFleetByteIdenticalCSV(t *testing.T) {
	c := compileTest(t)

	// Single-process reference.
	jA, haveA := openTestJournal(t)
	r := campaign.NewRunner(c, jA, haveA, campaign.Options{Workers: 2})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for id, rec := range r.Records() {
		haveA[id] = rec
	}
	want := aggregateCSV(t, c, haveA)

	// Distributed run: real HTTP, two workers.
	host := NewHost(nil, nil)
	ts := httptest.NewServer(host)
	defer ts.Close()
	workers, stop := startWorkers(t, ts.URL, 2)
	defer stop()

	jB, haveB := openTestJournal(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fresh, err := host.RunCampaign(ctx, c, jB, haveB, CoordinatorConfig{BatchSize: 2, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for id, rec := range fresh {
		haveB[id] = rec
	}
	got := aggregateCSV(t, c, haveB)
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed CSV differs from single-process CSV:\n-- local --\n%s\n-- fleet --\n%s", want, got)
	}

	m := host.Metrics().Snapshot()
	if m["units_completed"] != int64(len(c.Units)) {
		t.Fatalf("fleet metrics: %+v", m)
	}
	if m["leases_granted"] < 2 {
		t.Fatalf("want work spread over multiple leases, got %d", m["leases_granted"])
	}
	executed := workers[0].Stats().UnitsExecuted + workers[1].Stats().UnitsExecuted
	if executed < int64(len(c.Units)) {
		t.Fatalf("workers executed %d of %d units", executed, len(c.Units))
	}

	// Closing the host makes connected workers exit on their own.
	host.Close()
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers did not exit after host close")
	}
}

// TestFleetDeadWorkerRequeue kills a worker the crude way — it claims a
// lease and never comes back — and requires the campaign to finish anyway,
// with the lost units observably requeued.
func TestFleetDeadWorkerRequeue(t *testing.T) {
	c := compileTest(t)
	host := NewHost(nil, nil)
	ts := httptest.NewServer(host)
	defer ts.Close()

	j, have := openTestJournal(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type result struct {
		fresh map[string]campaign.Record
		err   error
	}
	resc := make(chan result, 1)
	go func() {
		fresh, err := host.RunCampaign(ctx, c, j, have, CoordinatorConfig{
			BatchSize: 3, LeaseTTL: 300 * time.Millisecond,
		})
		resc <- result{fresh, err}
	}()

	// The doomed worker claims over the real wire, then vanishes without
	// heartbeat or completion.
	var claim ClaimResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := json.Marshal(ClaimRequest{Worker: "doomed", Generation: 1})
		resp, err := http.Post(ts.URL+"/v1/leases", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&claim)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if claim.Lease != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A healthy worker joins and must finish everything, including the
	// doomed batch once its lease expires.
	_, stop := startWorkers(t, ts.URL, 1)
	defer stop()

	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	for id, rec := range res.fresh {
		have[id] = rec
	}
	aggregateCSV(t, c, have) // fails the test if any series is incomplete

	m := host.Metrics().Snapshot()
	if m["leases_expired"] < 1 || m["units_requeued"] < 1 {
		t.Fatalf("dead worker not detected: %+v", m)
	}
	if m["units_completed"] != int64(len(c.Units)) {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestFleetGenerations runs two campaigns through one host and a persistent
// worker: the worker must recompile at the generation change and serve both.
func TestFleetGenerations(t *testing.T) {
	c1 := compileTest(t)
	man2 := testManifest()
	man2.Models = []string{"large"}
	c2, err := sharedCache.Compile(man2)
	if err != nil {
		t.Fatal(err)
	}

	host := NewHost(nil, nil)
	ts := httptest.NewServer(host)
	defer ts.Close()
	workers, stop := startWorkers(t, ts.URL, 1)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for gen, c := range []*campaign.Compiled{c1, c2} {
		j, have := openTestJournal(t)
		fresh, err := host.RunCampaign(ctx, c, j, have, CoordinatorConfig{BatchSize: 4, LeaseTTL: 10 * time.Second})
		if err != nil {
			t.Fatalf("generation %d: %v", gen+1, err)
		}
		for id, rec := range fresh {
			have[id] = rec
		}
		aggregateCSV(t, c, have)
	}
	if s := workers[0].Stats(); s.UnitsExecuted != int64(len(c1.Units)+len(c2.Units)) {
		t.Fatalf("worker stats across generations: %+v", s)
	}

	// Between campaigns the host reports idle to the fleet.
	var info CampaignInfo
	resp, err := http.Get(ts.URL + "/v1/dist/campaign")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.State != StateIdle || info.Generation != 2 {
		t.Fatalf("campaign info between runs: %+v", info)
	}
}

// TestWorkerExitsCleanlyAfterClose drops the listener as soon as
// WaitClosed returns: the worker must already have heard the closed state
// and return nil, instead of retrying a dead listener until it gives up.
func TestWorkerExitsCleanlyAfterClose(t *testing.T) {
	c := compileTest(t)
	host := NewHost(nil, nil)
	ts := httptest.NewServer(host)
	defer ts.Close()
	w := NewWorker(WorkerConfig{
		Coordinator: ts.URL,
		Name:        "w1",
		Problems:    sharedCache,
		Poll:        10 * time.Millisecond,
		Backoff:     Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxRetries:  2,
	})
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	j, have := openTestJournal(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := host.RunCampaign(ctx, c, j, have, CoordinatorConfig{BatchSize: 2, LeaseTTL: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	host.Close()
	host.WaitClosed()
	ts.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker after its coordinator closed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker still running after its coordinator closed")
	}
}

// TestHostWireValidation covers the HTTP edges the e2e paths don't: stale
// generations, unknown leases, malformed and oversized bodies, status.
func TestHostWireValidation(t *testing.T) {
	c := compileTest(t)
	host := NewHost(nil, nil)
	ts := httptest.NewServer(host)
	defer ts.Close()

	j, have := openTestJournal(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go host.RunCampaign(ctx, c, j, have, CoordinatorConfig{BatchSize: 2, LeaseTTL: time.Hour})
	waitRunning(t, ts.URL)

	// Stale generation: no lease, current generation reported.
	var claim ClaimResponse
	postJSON(t, ts.URL+"/v1/leases", ClaimRequest{Worker: "w", Generation: 99}, &claim, http.StatusOK)
	if claim.Lease != nil || claim.Generation != 1 {
		t.Fatalf("stale-generation claim: %+v", claim)
	}

	// Unknown lease heartbeat: 410.
	body, _ := json.Marshal(HeartbeatRequest{Worker: "w"})
	resp, err := http.Post(ts.URL+"/v1/leases/lease-999999/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown lease heartbeat: status %d", resp.StatusCode)
	}

	// Malformed body: 400.
	resp, err = http.Post(ts.URL+"/v1/leases", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed claim: status %d", resp.StatusCode)
	}

	// Status reflects the running campaign.
	var status StatusInfo
	getJSON(t, ts.URL+"/v1/dist/status", &status)
	if status.State != StateRunning || status.Stats.Total != len(c.Units) {
		t.Fatalf("status: %+v", status)
	}

	// The standalone host serves its own healthz and metrics.
	var hz map[string]any
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz["mode"] != "coordinator" || hz["state"] != StateRunning {
		t.Fatalf("healthz: %+v", hz)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "dist_leases_granted_total") {
		t.Fatalf("metrics exposition:\n%s", buf.String())
	}
}

func waitRunning(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var info CampaignInfo
		getJSON(t, url+"/v1/dist/campaign", &info)
		if info.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never reached running state")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, in, out any, wantStatus int) {
	t.Helper()
	body, _ := json.Marshal(in)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
