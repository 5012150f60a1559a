package dist

import (
	"path/filepath"
	"testing"

	"sdcgmres/internal/campaign"
)

// BenchmarkLeaseDispatch measures one full coordinator dispatch cycle —
// Claim a batch, Complete it with validated, journaled records — the cost
// every campaign pays beyond the experiments themselves: a fleet once per
// lease round trip, a local run once per unit (batches of one). Baseline
// recorded in BENCH_dist.json.
func BenchmarkLeaseDispatch(b *testing.B) {
	c, err := sharedCache.Compile(testManifest())
	if err != nil {
		b.Fatal(err)
	}
	j, _, err := campaign.OpenJournal(filepath.Join(b.TempDir(), "bench.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()

	// Records are fabricated once per unit; the benchmark times dispatch
	// bookkeeping and journaling, not GMRES.
	recsByID := make(map[string]campaign.Record, len(c.Units))
	for _, u := range c.Units {
		recsByID[u.ID] = fakeRecord(u)
	}
	co := campaign.NewCoordinator(c, j, nil, campaign.CoordinatorConfig{BatchSize: 4})
	batch := make([]campaign.Record, 0, 4)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, done, err := co.Claim("bench", 0)
		if err != nil {
			b.Fatal(err)
		}
		if done || l == nil {
			// Campaign exhausted: recycle the coordinator against the same
			// journal (appends just accumulate) outside the timer.
			b.StopTimer()
			co = campaign.NewCoordinator(c, j, nil, campaign.CoordinatorConfig{BatchSize: 4})
			b.StartTimer()
			continue
		}
		batch = batch[:0]
		for _, u := range l.Units {
			batch = append(batch, recsByID[u.ID])
		}
		if _, err := co.Complete(l.ID, "bench", batch); err != nil {
			b.Fatal(err)
		}
	}
}
