package main

// metricDef documents one benchmark metric: its unit, which direction is
// better, the layer it measures and the end-to-end metric and workload a
// change to that layer should move. The table is the benchmark's model of
// the system; BENCHMARK.json lists the same names, units and directions,
// and the smoke test holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	layer  string
	moves  string
}

// endToEnd are the gated metrics every untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "bench", "speed-adjusted process CPU time of calibration, journal/store open, fleet or server start and one warm-up op of every class; median of the set-ups in a run"},
	{"ops_per_cpu_s", "1/s", "higher", "bench", "median over the window's parts (campaigns or twentieths of the window) of units journaled or jobs observed terminal per second of process CPU time (user + system), adjusted to the reference machine speed by the speed probe"},
	{"rss_peak_mb", "MiB", "lower", "runtime", "median over 250 ms intervals of the window of the process's peak resident set (VmHWM)"},
}

// perLayer are the metrics the traced run prints. Counts marked exact
// repeat bit-for-bit for one seed.
var perLayer = []metricDef{
	{"ops_per_s", "1/s", "higher", "bench", "wall-clock ops_per_cpu_s of the untraced window (median over its parts); follows the CPU share a shared machine grants, so it is not gated"},
	{"op_p50_ms", "ms", "lower", "client (jobs-http)", "client-observed job latency, SubmitJob to terminal; closed loop, so ops_per_s on jobs-http"},
	{"op_p90_ms", "ms", "lower", "client (jobs-http)", "as op_p50_ms; printed only with >= 10 samples beyond p90"},
	{"campaign.calibrate_s", "s", "lower", "campaign/expt", "setup_s on sweep-fleet"},
	{"campaign.unit_p50_ms", "ms", "lower", "campaign", "ops_per_cpu_s on sweep-fleet"},
	{"campaign.unit_p90_ms", "ms", "lower", "campaign", "ops_per_cpu_s on sweep-fleet"},
	{"expt.runpoint_p50_ms", "ms", "lower", "expt/core", "ops_per_cpu_s on sweep-fleet and jobs-http"},
	{"sandbox.overhead_us", "us", "lower", "sandbox", "ops_per_cpu_s on sweep-fleet; none on jobs-http"},
	{"campaign.journal_append_us", "us", "lower", "campaign", "ops_per_cpu_s on sweep-fleet; none on jobs-http"},
	{"campaign.outer_iters_per_unit", "count", "lower", "core", "none; guards the science (exact)"},
	{"krylov.inner_solve_ms", "ms", "lower", "krylov", "ops_per_cpu_s on sweep-fleet and jobs-http"},
	{"core.outer_self_ms", "ms", "lower", "core", "ops_per_cpu_s on sweep-fleet and jobs-http"},
	{"krylov.inner_iters_per_unit", "count", "lower", "krylov", "none; guards the science (exact)"},
	{"kernel.spmv_gbps", "GB/s", "higher", "kernel/sparse", "ops_per_cpu_s on sweep-fleet and jobs-http (circuit units and jobs run the most SpMV)"},
	{"kernel.mgs_gbps", "GB/s", "higher", "kernel/vec", "ops_per_cpu_s on sweep-fleet and jobs-http"},
	{"kernel.pool_speedup", "x", "higher", "kernel", "none: both workloads run sequential kernels, and a pool spends the same CPU sooner, so ops_per_cpu_s would not show it"},
	{"dist.claim_p50_ms", "ms", "lower", "dist", "ops_per_cpu_s on sweep-fleet; none on jobs-http"},
	{"dist.complete_p50_ms", "ms", "lower", "dist", "ops_per_cpu_s on sweep-fleet; none on jobs-http"},
	{"dist.calls_per_unit", "count", "lower", "dist", "ops_per_cpu_s on sweep-fleet; none elsewhere"},
	{"dist.units_per_lease", "count", "higher", "dist", "ops_per_cpu_s on sweep-fleet; none elsewhere (exact)"},
	{"dist.retries", "count", "lower", "dist", "ops_per_cpu_s on sweep-fleet; none elsewhere"},
	{"dist.leases_lost", "count", "lower", "dist", "ops_per_cpu_s on sweep-fleet; none elsewhere"},
	{"dist.worker_idle_frac", "1", "lower", "dist", "ops_per_s on sweep-fleet; none on jobs-http"},
	{"store.ingest_us", "us", "lower", "store", "ops_per_cpu_s on sweep-fleet; none on jobs-http"},
	{"service.submit_p50_ms", "ms", "lower", "service (edge, RED, memo probe, FIFO push)", "op_p50_ms on jobs-http"},
	{"service.queue_wait_p50_ms", "ms", "lower", "service (admission)", "op_p90_ms on jobs-http"},
	{"service.queue_wait_p90_ms", "ms", "lower", "service (admission)", "op_p90_ms on jobs-http"},
	{"service.build_p50_ms", "ms", "lower", "gallery/precond", "op_p50_ms on jobs-http (circuit class)"},
	{"class.poisson48_ft.solve_p50_ms", "ms", "lower", "core/krylov", "op_p50_ms on jobs-http"},
	{"class.convdiff48_ilu0.solve_p50_ms", "ms", "lower", "core/krylov/precond", "op_p50_ms on jobs-http"},
	{"class.poisson64_gmres.solve_p50_ms", "ms", "lower", "krylov", "op_p50_ms on jobs-http"},
	{"class.circuit2000_ft.solve_p50_ms", "ms", "lower", "core/krylov", "op_p50_ms on jobs-http"},
	{"memo.hit_ratio", "1", "higher", "memo", "ops_per_cpu_s on jobs-http (exact)"},
	{"memo.hit_p50_ms", "ms", "lower", "memo", "ops_per_cpu_s on jobs-http"},
	{"client.polls_per_job", "count", "lower", "bench", "none; measurement cost"},
	{"obs.scrape_ms", "ms", "lower", "obs", "none; surface check"},
	{"obs.lint_ok", "1", "higher", "obs", "none; surface check (1 = /metrics passes obs.LintPrometheus)"},
	{"alloc.mb_per_op", "MiB", "lower", "runtime", "ops_per_cpu_s on sweep-fleet and jobs-http"},
	{"alloc.allocs_per_op", "count", "lower", "runtime", "ops_per_cpu_s on sweep-fleet and jobs-http"},
	{"gc.cpu_frac", "1", "lower", "runtime", "ops_per_cpu_s on sweep-fleet and jobs-http"},
	{"trace.overhead_frac", "1", "lower", "bench", "none; CPU cost of the traced run"},
	{"trace.coverage_frac", "1", "higher", "bench", "none; shows unattributed time"},
	{"env.steal_frac", "1", "lower", "machine", "none; flags noisy-neighbour runs"},
	{"env.probe_us", "us", "lower", "machine", "none; median thread CPU time of the speed probe's fixed work over the untraced window, which ops_per_cpu_s is adjusted by"},
}

// jobClasses name the jobs-http request classes; class.<name>.solve_p50_ms
// in perLayer must list the same names.
var jobClasses = []string{"poisson48_ft", "convdiff48_ilu0", "poisson64_gmres", "circuit2000_ft"}
