package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sdcgmres/client"
)

// TestInputsWithUnknownFieldsNeverLeave: a misspelled field in a job spec
// or a campaign manifest is an error naming the field, and nothing is
// sent, rather than a field dropped before the input is re-encoded.
func TestInputsWithUnknownFieldsNeverLeave(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
	defer ts.Close()
	cl := client.New(ts.URL, nil)
	dir := t.TempDir()

	for _, tc := range []struct {
		name, body, field string
		run               func(path string) error
	}{
		{
			name:  "submit",
			body:  `{"matrix":{"kind":"poisson","n":8},"solver":{"kind":"ftgmres","detecter":true}}`,
			field: "detecter",
			run: func(path string) error {
				return cmdSubmit(context.Background(), cl, []string{"-spec", path})
			},
		},
		{
			name: "campaign",
			body: `{"name":"typo","problems":[{"kind":"poisson","n":8,"inner_iters":6,"target_outer":5}],
				"models":["large"],"steps":["first"],"stide":4}`,
			field: "stide",
			run: func(path string) error {
				return cmdCampaign(context.Background(), cl, []string{path})
			},
		},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := tc.run(path)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s with %q: err = %v, want one naming the field", tc.name, tc.field, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("server reached %d times", n)
	}
}
