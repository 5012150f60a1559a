package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeManifest writes raw to a manifest file in a fresh directory.
func writeManifest(t *testing.T, raw string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validManifestJSON = `{"name": "Two Problems/run 1",
  "problems": [{"kind": "poisson", "n": 8, "inner_iters": 6, "target_outer": 5},
               {"kind": "poisson", "n": 10, "inner_iters": 6, "target_outer": 5}],
  "models": ["slight", "large"], "steps": ["first", "last"],
  "detectors": [{"enabled": false}, {"enabled": true, "response": "restart"}],
  "stride": 3}`

func TestLoadManifest(t *testing.T) {
	m, err := LoadManifest(writeManifest(t, validManifestJSON))
	if err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	if m.Name != "Two Problems/run 1" || len(m.Problems) != 2 || m.Stride != 3 {
		t.Fatalf("decoded %+v", m)
	}
	if got, want := m.JournalName(), "two_problems_run_1-"+m.Hash()+".jsonl"; got != want {
		t.Fatalf("JournalName = %q, want %q", got, want)
	}

	for _, tc := range []struct{ name, raw, want string }{
		{"unknown field", strings.Replace(validManifestJSON, `"stride"`, `"stide"`, 1), `unknown field "stide"`},
		{"invalid manifest", strings.Replace(validManifestJSON, `"stride": 3`, `"stride": -1`, 1), "stride must be >= 0"},
		{"no name", strings.Replace(validManifestJSON, `"Two Problems/run 1"`, `""`, 1), "needs a name"},
		{"trailing data", validManifestJSON + `{}`, "data after"},
		{"not JSON", "stride: 3", "invalid character"},
	} {
		_, err := LoadManifest(writeManifest(t, tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := LoadManifest(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Fig-3a_large": "Fig-3a_large",
		"../x y/é.z":   "___x_y___z",
		"":             "",
	} {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
	if got := (Manifest{Name: "Fig 3A"}).Slug(); got != "fig_3a" {
		t.Errorf("Manifest.Slug = %q, want fig_3a", got)
	}
	if got := (Manifest{}).Slug(); got != "campaign" {
		t.Errorf("empty-name Manifest.Slug = %q, want campaign", got)
	}
}

// TestSeriesFileNamesDistinct: every series of a compiled two-problem
// campaign gets its own CSV file name, so a coordinator writing one file
// per series overwrites none.
func TestSeriesFileNamesDistinct(t *testing.T) {
	m, err := LoadManifest(writeManifest(t, validManifestJSON))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	series := map[SeriesKey]bool{}
	for _, u := range c.Units {
		series[u.SeriesKey()] = true
	}
	if want := 2 * 2 * 2 * 2; len(series) != want {
		t.Fatalf("%d series, want %d", len(series), want)
	}
	names := map[string]SeriesKey{}
	for k := range series {
		name := k.FileName(m.Name)
		if prev, dup := names[name]; dup {
			t.Fatalf("series %v and %v share file name %s", prev, k, name)
		}
		names[name] = k
	}
	k := SeriesKey{Problem: "poisson/8/6/5", Model: "bitflip:62", Step: "first", Detector: "on/frobenius/restart"}
	if got, want := k.FileName("fig-3a"), "fig-3a_poisson_8_6_5_bitflip_62_first_on_frobenius_restart.csv"; got != want {
		t.Fatalf("FileName = %q, want %q", got, want)
	}
}

// TestSeriesKeySweepConfig: decoding a unit's series key gives the
// configuration the compiled campaign hands to expt, less the stride.
func TestSeriesKeySweepConfig(t *testing.T) {
	m, err := LoadManifest(writeManifest(t, validManifestJSON))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range c.Units {
		want, err := c.SweepConfig(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := u.SeriesKey().SweepConfig()
		if err != nil {
			t.Fatal(err)
		}
		if got.Stride != 0 || want.Stride != m.Stride {
			t.Fatalf("strides: key %d, compiled %d, manifest %d", got.Stride, want.Stride, m.Stride)
		}
		got.Stride = want.Stride
		if got != want {
			t.Fatalf("unit %s: key decodes to %+v, compiled %+v", u.ID, got, want)
		}
	}
	if _, err := (SeriesKey{Model: "large", Step: "first", Detector: "on/bogus/warn"}).SweepConfig(); err == nil {
		t.Fatal("unknown detector bound accepted")
	}
}

// FuzzLoadManifest: reading a manifest file never panics, and an accepted
// manifest's journal and series CSV names are each one path element.
func FuzzLoadManifest(f *testing.F) {
	path := filepath.Join(f.TempDir(), "manifest.json")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			return
		}
		names := []string{m.JournalName()}
		for _, p := range m.Problems {
			for _, model := range m.Models {
				for _, step := range m.Steps {
					for _, d := range m.withDefaults().Detectors {
						k := SeriesKey{Problem: p.Key(), Model: model, Step: step, Detector: d.Key()}
						names = append(names, k.FileName(m.Name))
					}
				}
			}
		}
		for _, name := range names {
			if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
				t.Fatalf("name %q is not one path element (manifest %q)", name, m.Name)
			}
		}
	})
}
