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
use stramash_bench::{banner, host_cores, parallel_map, sweep_workers};
use stramash_workloads::driver::{run_benchmark, run_benchmark_scalar, Configuration};
use stramash_workloads::npb::{Class, NpbKind};

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

    if let Ok(path) = std::env::var("STRAMASH_BENCH_JSON") {
        let json = format!(
            "{{\n  \"configs\": {n},\n  \"workers\": {workers},\n  \
             \"host_cores\": {cores},\n  \
             \"serial_scalar_seconds\": {scalar_s:.3},\n  \
             \"serial_seconds\": {serial_s:.3},\n  \
             \"endtoend_batched_speedup\": {batched:.2},\n  \
             \"parallel_seconds\": {parallel_s:.3},\n  \"parallel_speedup\": {speedup:.2}\n}}\n",
            cores = host_cores(),
        );
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }
}
