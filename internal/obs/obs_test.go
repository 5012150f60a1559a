package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if !strings.HasPrefix(a, "cid-") || len(a) != 4+16 {
		t.Fatalf("NewID() = %q", a)
	}
	if a == b {
		t.Fatalf("NewID not unique: %q", a)
	}
}

func TestCorrelationMerge(t *testing.T) {
	ctx := With(context.Background(), Correlation{ID: "cid-1", Job: "job-1"})
	// A later With merges: new fields land, existing ones survive unless
	// overridden.
	ctx = With(ctx, Correlation{Unit: "u-1"})
	c := FromContext(ctx)
	if c.ID != "cid-1" || c.Job != "job-1" || c.Unit != "u-1" {
		t.Fatalf("merged correlation = %+v", c)
	}
	ctx = With(ctx, Correlation{ID: "cid-2"})
	if got := FromContext(ctx).ID; got != "cid-2" {
		t.Fatalf("override ID = %q", got)
	}
	if !FromContext(context.Background()).IsZero() {
		t.Fatal("empty context should yield zero correlation")
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	ctx := context.Background()
	l.Debug(ctx, "a")
	l.Info(ctx, "b", "k", 1)
	l.Warn(nil, "c") //nolint:staticcheck // deliberate nil ctx
	l.Error(ctx, "d")
	if l.Enabled(slog.LevelError) {
		t.Fatal("nil logger must report disabled")
	}
	if l.With("k", "v") != nil || l.Named("x") != nil {
		t.Fatal("With/Named on nil logger must stay nil")
	}
	if l.Ring() != nil {
		t.Fatal("nil logger has no ring")
	}
}

func TestLoggerStampsCorrelation(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(Options{Writer: &sb, Level: slog.LevelDebug, Format: "text"})
	ctx := With(context.Background(), Correlation{ID: "cid-ff00", Job: "job-000001", Tenant: "acme"})
	l.Info(ctx, "job accepted", "queue", 3)
	out := sb.String()
	for _, want := range []string{"cid=cid-ff00", "job=job-000001", "tenant=acme", "queue=3", "job accepted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log line missing %q:\n%s", want, out)
		}
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(Options{Writer: &sb, Format: "json"})
	l.Info(With(context.Background(), Correlation{ID: "cid-1"}), "hello")
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, sb.String())
	}
	if doc["cid"] != "cid-1" || doc["msg"] != "hello" {
		t.Fatalf("json record = %v", doc)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(Options{Writer: &sb, Level: slog.LevelWarn})
	l.Debug(context.Background(), "quiet")
	l.Info(context.Background(), "quiet")
	l.Warn(context.Background(), "loud")
	if strings.Contains(sb.String(), "quiet") || !strings.Contains(sb.String(), "loud") {
		t.Fatalf("level filter broken:\n%s", sb.String())
	}
	if l.Enabled(slog.LevelInfo) || !l.Enabled(slog.LevelError) {
		t.Fatal("Enabled disagrees with the configured level")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "": slog.LevelInfo, "INFO": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel should reject unknown levels")
	}
}

func TestRingCaptureAndFilter(t *testing.T) {
	l := NewLogger(Options{Writer: &strings.Builder{}, Level: slog.LevelDebug, Ring: 64})
	ctx1 := With(context.Background(), Correlation{ID: "cid-a", Job: "job-1"})
	ctx2 := With(context.Background(), Correlation{ID: "cid-b", Campaign: "cmp-1"})
	l.Info(ctx1, "first", "k", "v")
	l.Info(ctx2, "second")
	l.Warn(ctx1, "third")

	ring := l.Ring()
	if ring.Len() != 3 {
		t.Fatalf("ring len = %d", ring.Len())
	}
	tail := ring.Tail(2)
	if len(tail) != 2 || tail[0].Msg != "second" || tail[1].Msg != "third" {
		t.Fatalf("tail = %+v", tail)
	}
	recs, next := ring.Since(0, 0, func(r *LogRecord) bool { return r.CID == "cid-a" })
	if len(recs) != 2 || recs[0].Msg != "first" || recs[1].Msg != "third" {
		t.Fatalf("cid filter = %+v", recs)
	}
	if next != 3 {
		t.Fatalf("next seq = %d", next)
	}
	if recs[0].Job != "job-1" || recs[0].Attrs["k"] != "v" {
		t.Fatalf("record fields: %+v", recs[0])
	}
	// Polling from the cursor returns nothing new.
	recs, _ = ring.Since(next, 0, nil)
	if len(recs) != 0 {
		t.Fatalf("expected empty page, got %+v", recs)
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Append(LogRecord{Msg: "m"})
	}
	if r.Len() != 16 {
		t.Fatalf("ring len = %d", r.Len())
	}
	tail := r.Tail(100)
	if len(tail) != 16 || tail[0].Seq != 25 || tail[15].Seq != 40 {
		t.Fatalf("wrapped tail seqs: first %d last %d", tail[0].Seq, tail[len(tail)-1].Seq)
	}
}

func TestREDObserveAndExposition(t *testing.T) {
	red := NewRED("solved")
	red.Observe("/v1/jobs", "POST", 200, 2*time.Millisecond)
	red.Observe("/v1/jobs", "POST", 400, time.Millisecond)
	red.Observe("/v1/jobs", "GET", 500, time.Millisecond)
	var sb strings.Builder
	red.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`solved_http_requests_total{route="/v1/jobs",method="POST"} 2`,
		`solved_http_requests_total{route="/v1/jobs",method="GET"} 1`,
		`solved_http_errors_total{route="/v1/jobs",class="4xx"} 1`,
		`solved_http_errors_total{route="/v1/jobs",class="5xx"} 1`,
		`solved_http_request_duration_seconds_count{route="/v1/jobs"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RED exposition missing %q:\n%s", want, out)
		}
	}
	if errs := LintPrometheusString(out); len(errs) > 0 {
		t.Fatalf("RED exposition fails lint: %v", errs)
	}
	// Nil registry: no-ops.
	var nilRED *RED
	nilRED.Observe("/x", "GET", 200, time.Millisecond)
	nilRED.WritePrometheus(&sb)
}

func TestInstrumentCorrelation(t *testing.T) {
	red := NewRED("solved")
	var seen string
	h := Instrument(red, nil, "/v1/jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = FromContext(r.Context()).ID
		w.WriteHeader(http.StatusCreated)
	}))

	// No inbound header: a CID is minted, threaded, and echoed.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", nil))
	if seen == "" || rec.Header().Get(Header) != seen {
		t.Fatalf("minted cid %q, echoed %q", seen, rec.Header().Get(Header))
	}

	// Inbound header: adopted verbatim.
	req := httptest.NewRequest("POST", "/v1/jobs", nil)
	req.Header.Set(Header, "cid-feed")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "cid-feed" || rec.Header().Get(Header) != "cid-feed" {
		t.Fatalf("adopted cid = %q", seen)
	}

	var sb strings.Builder
	red.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `solved_http_requests_total{route="/v1/jobs",method="POST"} 2`) {
		t.Fatalf("RED did not count instrumented requests:\n%s", sb.String())
	}
}

func TestInstrumentLogsRequests(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(Options{Writer: &sb, Level: slog.LevelDebug})
	h := Instrument(nil, l, "/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	out := sb.String()
	if !strings.Contains(out, "http request failed") || !strings.Contains(out, "status=500") {
		t.Fatalf("5xx should log at warn:\n%s", out)
	}
	if !strings.Contains(out, "cid=cid-") {
		t.Fatalf("request log must carry the correlation id:\n%s", out)
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" || b.Module == "" {
		t.Fatalf("build info incomplete: %+v", b)
	}
	var sb strings.Builder
	WriteBuildMetric(&sb)
	out := sb.String()
	if !strings.Contains(out, "solved_build_info{") || !strings.Contains(out, "} 1") {
		t.Fatalf("build metric malformed:\n%s", out)
	}
	if errs := LintPrometheusString(out); len(errs) > 0 {
		t.Fatalf("build metric fails lint: %v", errs)
	}
}

func TestIntrospectorStatus(t *testing.T) {
	l := NewLogger(Options{Writer: &strings.Builder{}, Ring: 32})
	in := NewIntrospector(l)
	in.Register("widget", func() any { return map[string]int{"depth": 7} })
	in.RegisterGauge("solved_widget_depth", "Widget depth.", func() float64 { return 7 })
	l.Info(context.Background(), "hello ring")

	st := in.Status(10)
	if st.Runtime.Goroutines <= 0 || st.Runtime.GoMaxProcs <= 0 {
		t.Fatalf("runtime sample empty: %+v", st.Runtime)
	}
	if _, ok := st.Sections["widget"]; !ok {
		t.Fatalf("sections = %v", st.Sections)
	}
	if len(st.RecentLogs) != 1 || st.RecentLogs[0].Msg != "hello ring" {
		t.Fatalf("recent logs = %+v", st.RecentLogs)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("status not marshalable: %v", err)
	}

	var sb strings.Builder
	in.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{"solved_uptime_seconds", "solved_goroutines", "solved_widget_depth 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("introspector exposition missing %q:\n%s", want, out)
		}
	}
	if errs := LintPrometheusString(out); len(errs) > 0 {
		t.Fatalf("introspector exposition fails lint: %v", errs)
	}
}

func TestIntrospectorNil(t *testing.T) {
	var in *Introspector
	in.Register("x", func() any { return 1 })
	in.RegisterGauge("g", "h", func() float64 { return 1 })
	st := in.Status(5)
	if st.Build.GoVersion == "" {
		t.Fatal("nil introspector should still report build info")
	}
	if st.Sections != nil || st.RecentLogs != nil {
		t.Fatalf("nil introspector status = %+v", st)
	}
	var sb strings.Builder
	in.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil introspector must write nothing")
	}
}
