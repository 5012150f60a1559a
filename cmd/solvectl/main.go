// Command solvectl is the command-line client for a solved daemon. It
// speaks the v1 API through the client package: every non-2xx response is
// surfaced as its decoded error envelope, and throttled submissions exit
// with a distinct status carrying the server's retry advice.
//
// Usage:
//
//	solvectl [-addr http://localhost:8080] <command> [args]
//
// Commands:
//
//	submit [-spec file] [-tenant name] [-wait]   submit a job (spec JSON from -spec or stdin)
//	job <id>                                     fetch one job
//	wait <id>                                    poll a job to a terminal state
//	cancel <id>                                  cancel a job
//	campaign <manifest.json> [-wait]             submit a campaign manifest
//	campaign-status <id>                         fetch one campaign
//	stats <id> [-diff baseline]                  server-side paper statistics
//	query [-q json] [-all]                       query the results warehouse (filters from -q or stdin)
//	health                                       daemon health document
//	metrics [-lint]                              raw Prometheus metrics text (-lint validates the exposition)
//	status [-logs N]                             runtime self-report: build, runtime gauges, subsystem snapshots
//	tail [-cid ID] [-job ID] [-campaign ID]      stream the daemon's log ring, newest first resumed
//	     [-follow] [-poll 2s] [-limit N]         by sequence number; -follow polls forever
//
// Exit status: 0 on success, 1 on any API or transport error, 3 when the
// daemon throttled the request (stderr carries the Retry-After advice).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"sdcgmres/client"
	"sdcgmres/internal/campaign"
	"sdcgmres/internal/obs"
	"sdcgmres/internal/service"
)

func main() {
	fs := flag.NewFlagSet("solvectl", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "solved daemon base URL")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall command budget")
	_ = fs.Parse(os.Args[1:])
	args := fs.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "solvectl: no command (want submit | job | wait | cancel | campaign | campaign-status | stats | query | health | metrics | status | tail)")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	cl := client.New(*addr, nil)
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, cl, rest)
	case "job":
		err = oneID(rest, func(id string) error { return printView(cl.GetJob(ctx, id)) })
	case "wait":
		err = oneID(rest, func(id string) error { return printView(cl.WaitJob(ctx, id, 0)) })
	case "cancel":
		err = oneID(rest, func(id string) error { return printView(cl.CancelJob(ctx, id)) })
	case "campaign":
		err = cmdCampaign(ctx, cl, rest)
	case "campaign-status":
		err = oneID(rest, func(id string) error { return printView(cl.GetCampaign(ctx, id)) })
	case "stats":
		err = cmdStats(ctx, cl, rest)
	case "query":
		err = cmdQuery(ctx, cl, rest)
	case "health":
		var body map[string]json.RawMessage
		if body, err = cl.Healthz(ctx); err == nil {
			err = emit(body)
		}
	case "metrics":
		err = cmdMetrics(ctx, cl, rest)
	case "status":
		err = cmdStatus(ctx, cl, rest)
	case "tail":
		err = cmdTail(ctx, cl, rest)
	default:
		fmt.Fprintf(os.Stderr, "solvectl: unknown command %q\n", cmd)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "solvectl: %v\n", err)
		if errors.Is(err, client.ErrThrottled) {
			fmt.Fprintf(os.Stderr, "solvectl: retry after %v\n", client.RetryDelay(err))
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// oneID runs fn on a single required positional argument.
func oneID(args []string, fn func(id string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("want exactly one ID argument, got %d", len(args))
	}
	return fn(args[0])
}

// printView emits any API view as indented JSON, passing the call's error
// through.
func printView(v any, err error) error {
	if err != nil {
		return err
	}
	return emit(v)
}

func emit(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// readInput loads JSON from a -spec/-q style path ("-" or empty = stdin).
func readInput(path string) ([]byte, error) {
	if path == "" || path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func cmdSubmit(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	specPath := fs.String("spec", "", "job spec JSON file (default stdin)")
	tenant := fs.String("tenant", "", "tenant name (overrides the spec's tenant field)")
	wait := fs.Bool("wait", false, "poll until the job reaches a terminal state")
	_ = fs.Parse(args)
	raw, err := readInput(*specPath)
	if err != nil {
		return err
	}
	// A misspelled field is an error, as in the daemon, not dropped here.
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("bad job spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("bad job spec: data after the spec object")
	}
	if *tenant != "" {
		spec.Tenant = *tenant
	}
	view, err := cl.SubmitJob(ctx, spec)
	if err != nil {
		return err
	}
	if *wait && !view.State.Terminal() {
		if view, err = cl.WaitJob(ctx, view.ID, 0); err != nil {
			return err
		}
	}
	return emit(view)
}

func cmdCampaign(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	wait := fs.Bool("wait", false, "poll until the campaign reaches a terminal state")
	// flag stops at the first positional arg; keep parsing so
	// "campaign manifest.json -wait" works as well as "campaign -wait manifest.json".
	var paths []string
	for {
		_ = fs.Parse(args)
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		paths = append(paths, args[0])
		args = args[1:]
	}
	if len(paths) != 1 {
		return fmt.Errorf("want exactly one manifest path")
	}
	man, err := campaign.LoadManifest(paths[0])
	if err != nil {
		return err
	}
	view, err := cl.SubmitCampaign(ctx, man)
	if err != nil {
		return err
	}
	if *wait {
		if view, err = cl.WaitCampaign(ctx, view.ID, 0); err != nil {
			return err
		}
		if view.State != service.CampaignDone {
			if err := emit(view); err != nil {
				return err
			}
			return fmt.Errorf("campaign %s ended %s: %s", view.ID, view.State, view.Error)
		}
	}
	return emit(view)
}

func cmdStats(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	diff := fs.String("diff", "", "baseline campaign for a statistical comparison")
	var ids []string
	for {
		_ = fs.Parse(args)
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		ids = append(ids, args[0])
		args = args[1:]
	}
	if len(ids) != 1 {
		return fmt.Errorf("want exactly one campaign ID")
	}
	stats, err := cl.CampaignStats(ctx, ids[0], *diff)
	if err != nil {
		return err
	}
	return emit(stats)
}

func cmdMetrics(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	lint := fs.Bool("lint", false, "validate the exposition with the strict text-format parser instead of printing it")
	_ = fs.Parse(args)
	text, err := cl.Metrics(ctx)
	if err != nil {
		return err
	}
	if !*lint {
		fmt.Print(text)
		return nil
	}
	if errs := obs.LintPrometheusString(text); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "solvectl: metrics lint: %v\n", e)
		}
		return fmt.Errorf("%d exposition-format problems", len(errs))
	}
	fmt.Println("metrics exposition OK")
	return nil
}

func cmdStatus(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	logs := fs.Int("logs", 0, "recent log records to include (0 = server default)")
	_ = fs.Parse(args)
	st, err := cl.DebugStatus(ctx, *logs)
	if err != nil {
		return err
	}
	return emit(st)
}

func cmdTail(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	cid := fs.String("cid", "", "only records carrying this correlation ID")
	job := fs.String("job", "", "only records for this job ID")
	camp := fs.String("campaign", "", "only records for this campaign ID")
	follow := fs.Bool("follow", false, "keep polling for new records until interrupted")
	poll := fs.Duration("poll", 2*time.Second, "poll interval with -follow")
	limit := fs.Int("limit", 0, "records per page (0 = server default)")
	_ = fs.Parse(args)
	q := client.DebugLogsQuery{CID: *cid, Job: *job, Campaign: *camp, Limit: *limit}
	for {
		page, err := cl.DebugLogs(ctx, q)
		if err != nil {
			return err
		}
		for _, rec := range page.Records {
			printRecord(rec)
		}
		if page.NextSeq > q.After {
			q.After = page.NextSeq
		}
		if !*follow {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*poll):
		}
	}
}

// printRecord renders one ring record as a logfmt-style line: timestamp,
// level, message, then the correlation coordinates and remaining
// attributes (sorted for stable output).
func printRecord(rec obs.LogRecord) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %-5s %s", rec.Time.Format(time.RFC3339), rec.Level, rec.Msg)
	for _, kv := range [...][2]string{
		{"cid", rec.CID}, {"job", rec.Job}, {"campaign", rec.Campaign},
		{"unit", rec.Unit}, {"lease", rec.Lease}, {"tenant", rec.Tenant},
		{"worker", rec.Worker},
	} {
		if kv[1] != "" {
			fmt.Fprintf(&sb, " %s=%s", kv[0], kv[1])
		}
	}
	keys := make([]string, 0, len(rec.Attrs))
	for k := range rec.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, rec.Attrs[k])
	}
	fmt.Println(sb.String())
}

func cmdQuery(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	qPath := fs.String("q", "", "query JSON file (default stdin)")
	all := fs.Bool("all", false, "follow next_cursor until the result set is exhausted")
	_ = fs.Parse(args)
	raw, err := readInput(*qPath)
	if err != nil {
		return err
	}
	var q client.ResultsQuery
	if err := json.Unmarshal(raw, &q); err != nil {
		return fmt.Errorf("bad query: %w", err)
	}
	page, err := cl.QueryResults(ctx, q)
	if err != nil {
		return err
	}
	if *all {
		for page.NextCursor != "" {
			q.Cursor = page.NextCursor
			next, err := cl.QueryResults(ctx, q)
			if err != nil {
				return err
			}
			page.Records = append(page.Records, next.Records...)
			page.NextCursor = next.NextCursor
		}
	}
	return emit(page)
}
