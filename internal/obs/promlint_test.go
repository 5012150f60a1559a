package obs

import (
	"strings"
	"testing"
)

func lintErrs(t *testing.T, doc string) []string {
	t.Helper()
	errs := LintPrometheusString(doc)
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

func wantProblem(t *testing.T, doc, frag string) {
	t.Helper()
	for _, e := range lintErrs(t, doc) {
		if strings.Contains(e, frag) {
			return
		}
	}
	t.Fatalf("lint missed %q in:\n%s\nerrors: %v", frag, doc, lintErrs(t, doc))
}

func TestLintCleanExposition(t *testing.T) {
	doc := `# HELP solved_jobs_total Jobs accepted.
# TYPE solved_jobs_total counter
solved_jobs_total 42
# HELP solved_latency_seconds Request latency.
# TYPE solved_latency_seconds histogram
solved_latency_seconds_bucket{le="0.1"} 1
solved_latency_seconds_bucket{le="+Inf"} 2
solved_latency_seconds_sum 0.3
solved_latency_seconds_count 2
# HELP solved_build_info Build identity.
# TYPE solved_build_info gauge
solved_build_info{version="v1",path="a\\b",msg="say \"hi\"\n"} 1
`
	if errs := LintPrometheusString(doc); len(errs) > 0 {
		t.Fatalf("clean doc flagged: %v", errs)
	}
}

func TestLintMissingHeaders(t *testing.T) {
	wantProblem(t, "orphan_metric 1\n", "no # HELP/# TYPE header")
	wantProblem(t, "# TYPE m counter\nm 1\n", "has # TYPE but no # HELP")
	wantProblem(t, "# HELP m Help.\nm 1\n", "has # HELP but no # TYPE")
}

func TestLintDuplicateSeries(t *testing.T) {
	doc := `# HELP m M.
# TYPE m counter
m{a="1",b="2"} 1
m{b="2",a="1"} 2
`
	// Same label set in different order is the same series.
	wantProblem(t, doc, "duplicate series")
}

func TestLintNonContiguousFamily(t *testing.T) {
	doc := `# HELP a A.
# TYPE a counter
a 1
# HELP b B.
# TYPE b counter
b 1
a{x="1"} 2
`
	wantProblem(t, doc, "non-contiguous group")
}

func TestLintHeaderAfterSamples(t *testing.T) {
	doc := "# HELP m M.\n# TYPE m counter\nm 1\n# HELP m again\n"
	wantProblem(t, doc, "appears after its samples")
}

func TestLintBadType(t *testing.T) {
	wantProblem(t, "# TYPE m speedometer\n", `invalid type "speedometer"`)
}

func TestLintBadEscaping(t *testing.T) {
	wantProblem(t, "# HELP m M.\n# TYPE m counter\nm{a=\"x\\q\"} 1\n", `invalid escape`)
	wantProblem(t, "# HELP m M.\n# TYPE m counter\nm{a=unquoted} 1\n", "not quoted")
	wantProblem(t, "# HELP m M.\n# TYPE m counter\nm{a=\"1\",a=\"2\"} 1\n", `repeated label`)
}

func TestLintBadValues(t *testing.T) {
	wantProblem(t, "# HELP m M.\n# TYPE m gauge\nm notanumber\n", "bad value")
	doc := "# HELP m M.\n# TYPE m gauge\nm +Inf\nm2 1\n"
	// +Inf itself is legal; only the headerless m2 is flagged.
	errs := lintErrs(t, doc)
	if len(errs) != 1 || !strings.Contains(errs[0], "m2") {
		t.Fatalf("errors: %v", errs)
	}
}

func TestLintHistogramSuffixUnwrap(t *testing.T) {
	// _bucket/_sum/_count belong to the declared histogram family and need
	// no headers of their own; a summary must not have _bucket.
	doc := `# HELP s S.
# TYPE s summary
s_bucket{le="1"} 1
`
	wantProblem(t, doc, "no # HELP/# TYPE header")
}

// FuzzLintPrometheus: the linter reads text from other processes, so no
// input may make it panic.
func FuzzLintPrometheus(f *testing.F) {
	f.Add("# HELP a_total A.\n# TYPE a_total counter\na_total{l=\"v\"} 1\n")
	f.Fuzz(func(t *testing.T, doc string) {
		LintPrometheusString(doc)
	})
}
