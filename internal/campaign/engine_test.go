package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sdcgmres/internal/trace"
)

// TestLocalUnitOutlivesLeaseTTL runs the campaign locally on a coordinator
// clock that jumps past the default 30s lease TTL at every reading, so each
// unit runs longer than a fleet lease would live. An in-process worker
// cannot die alone, so its lease must not expire: every unit executes once
// and is journaled once.
func TestLocalUnitOutlivesLeaseTTL(t *testing.T) {
	c := compileTest(t)
	path := filepath.Join(t.TempDir(), "ttl.jsonl")
	j, have, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := trace.NewRecorder(1 << 14)
	r := NewRunner(c, j, have, Options{Workers: 2, Recorder: rec})
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	r.co.cfg.Now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(31 * time.Second)
		return now
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindUnitStart {
			starts++
		}
	}
	if starts != len(c.Units) {
		t.Fatalf("%d unit executions for %d units", starts, len(c.Units))
	}
	if m := r.co.Metrics().Snapshot(); m["leases_expired"] != 0 || m["units_completed"] != int64(len(c.Units)) {
		t.Fatalf("metrics: %+v", m)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != len(c.Units) {
		t.Fatalf("journal holds %d records for %d units", lines, len(c.Units))
	}
}
