//! Turns a [`Run`] into the end-to-end or per-layer metrics and the
//! result line.

use crate::inputs::Job;
use crate::jobs::{count_index, JobResult, Output};
use crate::run::{Role, Run};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use stramash_workloads::SystemKind;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_maccess_per_s", "M/s"),
    ("serve_kreq_per_s", "k/s"),
    ("ckpt_mb_per_s", "MB/s"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.client_s", "s"),
    ("workloads.client_ns_per_access", "ns"),
    ("core.fault_s", "s"),
    ("core.fault_n", "count"),
    ("core.fault_us_p50", "us"),
    ("popcorn.fault_s", "s"),
    ("popcorn.fault_n", "count"),
    ("popcorn.fault_us_p50", "us"),
    ("kernel.fault_s", "s"),
    ("kernel.fault_n", "count"),
    ("core.migrate_s", "s"),
    ("core.migrate_n", "count"),
    ("popcorn.migrate_s", "s"),
    ("popcorn.migrate_n", "count"),
    ("kernel.mmap_s", "s"),
    ("kernel.munmap_s", "s"),
    ("kernel.boot_s", "s"),
    ("workloads.serve.schedule_s", "s"),
    ("workloads.serve.run_s", "s"),
    ("workloads.serve.ns_per_request", "ns"),
    ("kernel.msg.stream_rtt_ns", "ns"),
    ("sim.checkpoint.encode_s", "s"),
    ("sim.checkpoint.encode_ms_p50", "ms"),
    ("sim.checkpoint.decode_s", "s"),
    ("sim.checkpoint.decode_ms_p50", "ms"),
    ("sim.checkpoint.mb.vanilla", "MB"),
    ("sim.checkpoint.mb.popcorn_tcp", "MB"),
    ("sim.checkpoint.mb.popcorn_shm", "MB"),
    ("sim.checkpoint.mb.stramash", "MB"),
    ("mem.accesses", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.l3_hit_ratio", "ratio"),
    ("mem.dram_local", "count"),
    ("mem.dram_remote", "count"),
    ("mem.snoop_inval", "count"),
    ("mem.snoop_data", "count"),
    ("kernel.tlb_miss_ratio", "ratio"),
    ("kernel.msg.sent", "count"),
    ("kernel.msg.window_stalls", "count"),
    ("popcorn.replicated_pages", "count"),
    ("core.remote_vma_walks", "count"),
    ("core.direct_remote_faults", "count"),
    ("sim.runtime_cycles", "count"),
    ("sim.instructions", "count"),
    ("trace_overhead", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
];

/// Median of `v` (sorted in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One rotation's worth of `f`: for each distinct job of `role`, the
/// median of `f` over its runs, summed over the jobs. Medians per job
/// keep the figure independent of how many times each job fitted into
/// the time budget.
fn per_rotation(
    run: &Run,
    role: Role,
    traced: Option<bool>,
    f: impl Fn(usize, &JobResult) -> f64,
) -> f64 {
    let mut by_job: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, (r, j)) in run.results.iter().enumerate() {
        if *r == role && traced.is_none_or(|t| j.traced == t) {
            by_job.entry(j.job.to_string()).or_default().push(f(i, j));
        }
    }
    run.jobs_of(role)
        .iter()
        .map(|job| by_job.get_mut(&job.to_string()).map_or(0.0, |v| median(v)))
        .sum()
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn end_to_end(run: &Run, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let main = |f: fn(&JobResult) -> f64| per_rotation(run, Role::Main, Some(false), |_, j| f(j));
    let wall = main(|j| j.timed_s);
    let rate = |role: Role, f: fn(&JobResult) -> f64| {
        let secs = per_rotation(run, role, Some(false), |_, j| j.timed_s);
        per_rotation(run, role, Some(false), |_, j| f(j)) / secs
    };
    let serve_role = run.serve_role();
    let ckpt_role = run.ckpt_role();
    vec![
        ("wall_s", wall),
        ("setup_s", main(|j| j.setup_s)),
        ("peak_rss_mb", peak_rss_mb),
        (
            "sim_maccess_per_s",
            main(|j| j.sim_accesses as f64) / wall / 1e6,
        ),
        (
            "serve_kreq_per_s",
            rate(serve_role, |j| j.requests as f64) / 1e3,
        ),
        (
            "ckpt_mb_per_s",
            rate(ckpt_role, |j| j.ckpt_bytes as f64) / 1e6,
        ),
    ]
}

/// Per-job sums and individual durations of every span name.
struct SpanTotals {
    /// `[job][name] = (seconds, count)`.
    per_job: Vec<BTreeMap<&'static str, (f64, u64)>>,
    /// `[name] = durations in seconds`, over traced main jobs only.
    each: BTreeMap<(Role, &'static str), Vec<f64>>,
}

impl SpanTotals {
    fn new(run: &Run) -> SpanTotals {
        let mut per_job = vec![BTreeMap::new(); run.results.len()];
        let mut each: BTreeMap<(Role, &'static str), Vec<f64>> = BTreeMap::new();
        for s in run.log.spans() {
            let secs = s.dur_ns as f64 / 1e9;
            let e = per_job[s.job as usize].entry(s.name).or_insert((0.0, 0));
            e.0 += secs;
            e.1 += 1;
            each.entry((run.results[s.job as usize].0, s.name))
                .or_default()
                .push(secs);
        }
        SpanTotals { per_job, each }
    }

    fn secs(&self, job: usize, name: &str) -> f64 {
        self.per_job[job].get(name).map_or(0.0, |e| e.0)
    }

    fn count(&self, job: usize, name: &str) -> f64 {
        self.per_job[job].get(name).map_or(0.0, |e| e.1 as f64)
    }

    fn p50(&self, role: Role, name: &'static str) -> f64 {
        self.each
            .get(&(role, name))
            .map_or(0.0, |v| median(&mut v.clone()))
    }
}

/// The per-layer metrics of a traced run.
#[must_use]
pub fn per_layer(run: &Run) -> Vec<(&'static str, f64)> {
    let spans = SpanTotals::new(run);
    let traced =
        |role: Role, f: &dyn Fn(usize, &JobResult) -> f64| per_rotation(run, role, Some(true), f);
    let main = |f: &dyn Fn(usize, &JobResult) -> f64| traced(Role::Main, f);
    let span_s = |name: &'static str| main(&|i, _| spans.secs(i, name));
    let span_n = |name: &'static str| main(&|i, _| spans.count(i, name));
    let count = |name: &str, designs: &[SystemKind]| {
        let k = count_index(name);
        main(&|_, j| {
            if designs.contains(&j.job.design()) {
                j.counts[k] as f64
            } else {
                0.0
            }
        })
    };
    let all = &SystemKind::ALL;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let client_s = main(&|i, j| match j.job {
        Job::Npb { .. } => {
            let os: f64 = spans.per_job[i]
                .iter()
                .filter(|(n, _)| !matches!(**n, "workloads.npb" | "kernel.boot"))
                .map(|(_, e)| e.0)
                .sum();
            spans.secs(i, "workloads.npb") - os
        }
        _ => 0.0,
    });
    let npb_accesses = main(&|_, j| match j.job {
        Job::Npb { .. } => j.counts[0] as f64,
        _ => 0.0,
    });

    let serve_role = run.serve_role();
    let serve_run_s = traced(serve_role, &|i, _| spans.secs(i, "workloads.serve.run"));
    let serve_requests = traced(serve_role, &|_, j| j.requests as f64);
    let ckpt_role = run.ckpt_role();
    let artifact_mb = |design: SystemKind| {
        run.of(ckpt_role, Some(true))
            .find_map(|j| match (&j.output, j.job.design() == design) {
                (Output::Ckpt { artifact_len, .. }, true) => Some(*artifact_len as f64 / 1e6),
                _ => None,
            })
            .unwrap_or(0.0)
    };
    let untraced_wall = per_rotation(run, Role::Main, Some(false), |_, j| j.timed_s);
    let traced_wall = main(&|_, j| j.timed_s);

    vec![
        ("workloads.client_s", client_s),
        (
            "workloads.client_ns_per_access",
            ratio(client_s * 1e9, npb_accesses),
        ),
        ("core.fault_s", span_s("core.fault")),
        ("core.fault_n", span_n("core.fault")),
        (
            "core.fault_us_p50",
            spans.p50(Role::Main, "core.fault") * 1e6,
        ),
        ("popcorn.fault_s", span_s("popcorn.fault")),
        ("popcorn.fault_n", span_n("popcorn.fault")),
        (
            "popcorn.fault_us_p50",
            spans.p50(Role::Main, "popcorn.fault") * 1e6,
        ),
        ("kernel.fault_s", span_s("kernel.fault")),
        ("kernel.fault_n", span_n("kernel.fault")),
        ("core.migrate_s", span_s("core.migrate")),
        ("core.migrate_n", span_n("core.migrate")),
        ("popcorn.migrate_s", span_s("popcorn.migrate")),
        ("popcorn.migrate_n", span_n("popcorn.migrate")),
        ("kernel.mmap_s", span_s("kernel.mmap")),
        ("kernel.munmap_s", span_s("kernel.munmap")),
        ("kernel.boot_s", span_s("kernel.boot")),
        (
            "workloads.serve.schedule_s",
            traced(serve_role, &|i, _| {
                spans.secs(i, "workloads.serve.schedule")
            }),
        ),
        ("workloads.serve.run_s", serve_run_s),
        (
            "workloads.serve.ns_per_request",
            ratio(serve_run_s * 1e9, serve_requests),
        ),
        ("kernel.msg.stream_rtt_ns", run.stream_rtt_ns.unwrap_or(0.0)),
        (
            "sim.checkpoint.encode_s",
            traced(ckpt_role, &|i, _| spans.secs(i, "sim.checkpoint.encode")),
        ),
        (
            "sim.checkpoint.encode_ms_p50",
            spans.p50(ckpt_role, "sim.checkpoint.encode") * 1e3,
        ),
        (
            "sim.checkpoint.decode_s",
            traced(ckpt_role, &|i, _| spans.secs(i, "sim.checkpoint.decode")),
        ),
        (
            "sim.checkpoint.decode_ms_p50",
            spans.p50(ckpt_role, "sim.checkpoint.decode") * 1e3,
        ),
        (
            "sim.checkpoint.mb.vanilla",
            artifact_mb(SystemKind::Vanilla),
        ),
        (
            "sim.checkpoint.mb.popcorn_tcp",
            artifact_mb(SystemKind::PopcornTcp),
        ),
        (
            "sim.checkpoint.mb.popcorn_shm",
            artifact_mb(SystemKind::PopcornShm),
        ),
        (
            "sim.checkpoint.mb.stramash",
            artifact_mb(SystemKind::Stramash),
        ),
        ("mem.accesses", count("accesses", all)),
        (
            "mem.l1_hit_ratio",
            ratio(count("l1_hits", all), count("accesses", all)),
        ),
        (
            "mem.l2_hit_ratio",
            ratio(count("l2_hits", all), count("l2_accesses", all)),
        ),
        (
            "mem.l3_hit_ratio",
            ratio(count("l3_hits", all), count("l3_accesses", all)),
        ),
        ("mem.dram_local", count("dram_local", all)),
        ("mem.dram_remote", count("dram_remote", all)),
        ("mem.snoop_inval", count("snoop_inval", all)),
        ("mem.snoop_data", count("snoop_data", all)),
        (
            "kernel.tlb_miss_ratio",
            ratio(
                count("tlb_misses", all),
                count("tlb_hits", all) + count("tlb_misses", all),
            ),
        ),
        ("kernel.msg.sent", count("msg_sent", all)),
        ("kernel.msg.window_stalls", count("window_stalls", all)),
        (
            "popcorn.replicated_pages",
            count(
                "replicated_pages",
                &[SystemKind::PopcornShm, SystemKind::PopcornTcp],
            ),
        ),
        (
            "core.remote_vma_walks",
            count("remote_vma_walks", &[SystemKind::Stramash]),
        ),
        (
            "core.direct_remote_faults",
            count("direct_remote_faults", &[SystemKind::Stramash]),
        ),
        ("sim.runtime_cycles", count("runtime_cycles", all)),
        ("sim.instructions", count("instructions", all)),
        ("trace_overhead", ratio(traced_wall, untraced_wall)),
        ("trace.untraced_wall_s", untraced_wall),
        ("trace.traced_wall_s", traced_wall),
    ]
}

/// Distribution of untraced main-job times, each divided by its job's
/// median: sample count and the highest whole percentile with at least
/// ten samples beyond it (`None` below eleven samples).
#[must_use]
pub fn wall_tail(run: &Run) -> (usize, Option<(u32, f64)>) {
    let mut by_job: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for j in run.of(Role::Main, Some(false)) {
        by_job.entry(j.job.to_string()).or_default().push(j.timed_s);
    }
    let mut rel: Vec<f64> = by_job
        .values_mut()
        .flat_map(|v| {
            let m = median(&mut v.clone());
            v.iter().map(move |t| t / m).collect::<Vec<_>>()
        })
        .collect();
    let n = rel.len();
    if n <= 10 {
        return (n, None);
    }
    rel.sort_by(f64::total_cmp);
    // Nearest rank: the p-th percentile is the ceil(p n / 100)-th value,
    // which leaves n - ceil(p n / 100) values above it.
    let pct = (n - 10) * 100 / n;
    let rank = (pct * n).div_ceil(100);
    (n, Some((u32::try_from(pct).unwrap_or(0), rel[rank - 1])))
}

/// Formats the final result line.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_f64(*value)
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values become `null`.
#[must_use]
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Attaches each metric's unit from `table`.
#[must_use]
pub fn with_units(
    values: Vec<(&'static str, f64)>,
    table: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64, &'static str)> {
    values
        .into_iter()
        .map(|(name, v)| {
            let unit = table
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
                .expect("metric is in its table");
            (name, v, unit)
        })
        .collect()
}
