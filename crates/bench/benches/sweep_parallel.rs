//! Parallel figure-sweep harness: determinism proof + wall-clock win.
//!
//! Each configuration of a figure sweep boots an independent simulator,
//! so the sweeps are embarrassingly parallel. This harness runs the
//! Figure 9 NPB IS sweep twice — serially and fanned out with
//! [`stramash_bench::parallel_map`] — asserts that every report is
//! *identical* (the cycle-identity contract: threading must not change
//! a single simulated cycle), and reports both wall-clocks.
//!
//! Set `STRAMASH_BENCH_JSON=<path>` to emit the timings as a JSON
//! object (`scripts/bench.sh` merges it into `BENCH_simulator.json`).

use std::time::Instant;
use stramash_bench::{banner, host_cores, parallel_map, parallel_map_nested, sweep_workers};
use stramash_kernel::system::OsSystem;
use stramash_sim::{DomainId, EpochPolicy, HardwareModel, WideReplay};
use stramash_workloads::driver::{
    run_benchmark, run_benchmark_scalar, run_pair_benchmark, Configuration,
};
use stramash_workloads::npb::{Class, NpbKind};
use stramash_workloads::pair::{run_pair, PairConfig, PairOutcome};
use stramash_workloads::target::{SystemKind, TargetSystem};

/// One intra-run pair leg: boots `kind`, optionally enables
/// epoch-parallel execution, runs the pair workload, and returns the
/// wall-clock, outcome, and simulated fingerprint.
fn pair_leg(kind: SystemKind, parallel: bool) -> (f64, PairOutcome, (u64, u64, u64)) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).expect("boot");
    // Pinned both ways so the serial leg stays serial even when the
    // environment exports STRAMASH_EPOCH_PARALLEL=1.
    let mut policy = sys.base().epoch_policy();
    policy.enabled = parallel;
    sys.base_mut().set_epoch_policy(policy);
    let cfg = PairConfig { elems: 24_000, phases: 40, heartbeat: true };
    let t0 = Instant::now();
    let out = run_pair(&mut sys, cfg).expect("pair run");
    let wall = t0.elapsed().as_secs_f64();
    let base = sys.base();
    let fp = (
        base.timebase.clock(DomainId::X86).cycles().raw(),
        base.timebase.clock(DomainId::ARM).cycles().raw(),
        base.msg.counters().total(),
    );
    (wall, out, fp)
}

fn main() {
    banner("Parallel sweep — Figure 9 IS sweep, serial vs std::thread::scope");
    let configs = Configuration::figure9_set();
    let n = configs.len();

    // Scalar leg: per-element client ops — the baseline the batched
    // pipeline is measured against.
    let t0 = Instant::now();
    let scalar: Vec<_> = configs
        .iter()
        .map(|&c| run_benchmark_scalar(c, NpbKind::Is, Class::Small).expect("scalar run"))
        .collect();
    let scalar_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let serial: Vec<_> = configs
        .iter()
        .map(|&c| run_benchmark(c, NpbKind::Is, Class::Small).expect("serial run"))
        .collect();
    let serial_s = t0.elapsed().as_secs_f64();

    for (sc, s) in scalar.iter().zip(&serial) {
        assert_eq!(sc.runtime, s.runtime, "batched pipeline drifted from the scalar path");
        assert_eq!(sc.messages, s.messages);
        assert_eq!(sc.remote_hits, s.remote_hits);
        assert_eq!(sc.inst_cycles, s.inst_cycles);
        assert_eq!(sc.mem_cycles, s.mem_cycles);
    }
    let batched = scalar_s / serial_s;
    println!(
        "batched pipeline: scalar {scalar_s:.2}s  ->  batched {serial_s:.2}s  \
         ({batched:.2}x, identical cycles)"
    );

    let t0 = Instant::now();
    let parallel =
        parallel_map(configs, |c| run_benchmark(c, NpbKind::Is, Class::Small).expect("run"));
    let parallel_s = t0.elapsed().as_secs_f64();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.runtime, p.runtime, "parallel sweep drifted from serial");
        assert_eq!(s.messages, p.messages);
        assert_eq!(s.remote_hits, p.remote_hits);
        assert_eq!(s.inst_cycles, p.inst_cycles);
        assert_eq!(s.mem_cycles, p.mem_cycles);
    }
    println!("all {n} configuration reports identical: threading changed nothing");

    let workers = sweep_workers(n);
    let speedup = serial_s / parallel_s;
    println!(
        "serial {serial_s:.2}s  ->  parallel {parallel_s:.2}s  \
         ({speedup:.2}x, {n} configs on {workers} worker(s))"
    );

    // Intra-run epoch-parallel leg: one simulation (the two-thread pair
    // workload) run serially and with deferred-epoch execution, on the
    // fused and popcorn kinds whose long private phases the epoch
    // engine targets. The fingerprints must be identical — the speedup
    // is pure host wall-clock.
    banner("Intra-run — pair workload, serial vs epoch-parallel boundary replay");
    let mut intra_serial_s = 0.0;
    let mut intra_parallel_s = 0.0;
    for kind in [SystemKind::Stramash, SystemKind::PopcornShm] {
        let (ws, out_s, fp_s) = pair_leg(kind, false);
        let (wp, out_p, fp_p) = pair_leg(kind, true);
        assert_eq!(
            out_s.checksum.to_bits(),
            out_p.checksum.to_bits(),
            "{kind}: epoch-parallel run drifted from serial"
        );
        assert_eq!(fp_s, fp_p, "{kind}: clocks/messages moved under epoch-parallel execution");
        assert_eq!(out_s.parallel_epochs, 0, "{kind}: serial leg must not go wide");
        intra_serial_s += ws;
        intra_parallel_s += wp;
        println!(
            "{kind:<12} serial {ws:.2}s  ->  epoch-parallel {wp:.2}s  \
             ({:.2}x, {} parallel epochs, identical fingerprints)",
            ws / wp,
            out_p.parallel_epochs
        );
    }
    let intra_speedup = intra_serial_s / intra_parallel_s;
    println!(
        "intra-run total: serial {intra_serial_s:.2}s  ->  epoch-parallel {intra_parallel_s:.2}s  \
         ({intra_speedup:.2}x on {workers} host core(s))"
    );

    // Nested leg: both parallelism levels at once. Configs fan out
    // across the sweep pool while each config runs epoch-parallel lanes
    // inside, under the deterministic core-budget split from
    // `nested_split` (STRAMASH_SWEEP_WORKERS × wide replay) — the inner
    // level only goes wide on cores the outer level left spare, so the
    // two levels never oversubscribe the host. The serial baseline runs
    // the same configs one at a time with epochs disabled; every
    // fingerprint must match bit-for-bit.
    banner("Nested — config fan-out × epoch-parallel lanes, core-budget split");
    let pair_cfg = PairConfig { elems: 24_000, phases: 20, heartbeat: true };
    let nested_items =
        vec![SystemKind::Stramash, SystemKind::PopcornShm, SystemKind::Stramash, SystemKind::PopcornShm];
    let nested_n = nested_items.len();
    let epochs_off = EpochPolicy { enabled: false, ..EpochPolicy::default() };
    let t0 = Instant::now();
    let nested_serial: Vec<_> = nested_items
        .iter()
        .map(|&k| run_pair_benchmark(k, pair_cfg, Some(epochs_off)).expect("nested serial run"))
        .collect();
    let nested_serial_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (nested, nested_workers, nested_wide) = parallel_map_nested(nested_items, |k, policy| {
        run_pair_benchmark(k, pair_cfg, Some(policy)).expect("nested run")
    });
    let nested_parallel_s = t0.elapsed().as_secs_f64();

    for (s, p) in nested_serial.iter().zip(&nested) {
        assert_eq!(s.cycles, p.cycles, "{}: nested run drifted from serial", s.kind);
        assert_eq!(s.messages, p.messages, "{}: message counters moved", s.kind);
        assert_eq!(
            s.outcome.checksum.to_bits(),
            p.outcome.checksum.to_bits(),
            "{}: checksum drifted",
            s.kind
        );
        assert_eq!(s.outcome.parallel_epochs, 0, "{}: serial leg must not go wide", s.kind);
    }
    let nested_speedup = nested_serial_s / nested_parallel_s;
    let wide_epochs: u64 = nested.iter().map(|r| r.outcome.parallel_epochs).sum();
    println!(
        "nested sweep: serial {nested_serial_s:.2}s  ->  {nested_workers} worker(s) × \
         {} inner replay {nested_parallel_s:.2}s  \
         ({nested_speedup:.2}x, {wide_epochs} wide epochs, {nested_n} configs, \
         {} host core(s), identical fingerprints)",
        if nested_wide == WideReplay::Force { "wide" } else { "serial" },
        host_cores(),
    );

    if let Ok(path) = std::env::var("STRAMASH_BENCH_JSON") {
        let json = format!(
            "{{\n  \"configs\": {n},\n  \"workers\": {workers},\n  \
             \"host_cores\": {cores},\n  \
             \"serial_scalar_seconds\": {scalar_s:.3},\n  \
             \"serial_seconds\": {serial_s:.3},\n  \
             \"endtoend_batched_speedup\": {batched:.2},\n  \
             \"parallel_seconds\": {parallel_s:.3},\n  \"parallel_speedup\": {speedup:.2},\n  \
             \"intra_run_serial_seconds\": {intra_serial_s:.3},\n  \
             \"intra_run_parallel_seconds\": {intra_parallel_s:.3},\n  \
             \"intra_run_parallel_speedup\": {intra_speedup:.2},\n  \
             \"nested_workers\": {nested_workers},\n  \
             \"nested_wide_replay\": {nested_is_wide},\n  \
             \"nested_serial_seconds\": {nested_serial_s:.3},\n  \
             \"nested_sweep_seconds\": {nested_parallel_s:.3},\n  \
             \"nested_sweep_epoch_speedup\": {nested_speedup:.2}\n}}\n",
            cores = host_cores(),
            nested_is_wide = u8::from(nested_wide == WideReplay::Force),
        );
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
