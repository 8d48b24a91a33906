//! Determinism contract for epoch-parallel domain execution.
//!
//! The deferred-epoch engine (DESIGN.md §11) batches every timed path
//! inside an epoch into a per-domain lane and replays the lanes at the
//! epoch boundary — serially, or on two host threads when the lanes are
//! long and provably disjoint. Either way the replay must be
//! *bit-identical* to the never-deferred execution. Pinned here, on the
//! `golden_stats.rs` fixed workload (NPB IS Tiny + 500 KV sets) and the
//! two-thread pair workload, for all four [`SystemKind`]s:
//!
//! 1. Forcing epochs on leaves the golden fingerprint (runtime, cache
//!    levels, TLB counters, message totals, KV checksum) untouched.
//! 2. The full trace event stream — not just the totals — is identical
//!    between epoch-off and epoch-on runs.
//! 3. The pair workload (the shape whose boundary replay actually goes
//!    wide) agrees in checksum bits, domain clocks, messages, and trace
//!    stream, while the epoch-on run demonstrably parallelises.
//! 4. An active [`FaultPlan`] (message drops, IPI loss, allocator
//!    exhaustion) changes nothing about that equivalence: faults fire
//!    at the same points and recover identically under epochs.
//! 5. A checkpoint taken mid-run under epoch-parallel execution and
//!    restored into a fresh machine resumes bit-identically — the
//!    compiled access plans revalidate rather than replaying stale
//!    translations.

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::rng::SimRng;
use stramash_repro::sim::trace::{shared_tracer, EventClass, TraceEvent};
use stramash_repro::sim::{EpochPolicy, FaultPlan, WideReplay};
use stramash_repro::workloads::kvstore::{run_kv, KvOp};
use stramash_repro::workloads::npb::{run_npb, Class, NpbKind};
use stramash_repro::workloads::pair::{PairConfig, PairOutcome, PairRun};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};
use stramash_repro::workloads::{ColSpec, IndexedPlan, MemoryClient, PlanCol};

/// Lossless ring for the fixed workload.
const RING_CAPACITY: usize = 1 << 20;

/// A policy whose lane threshold the fixed workloads actually cross,
/// with the two-thread replay forced on so the test exercises the
/// parallel executor even on a single-core host.
fn forced() -> EpochPolicy {
    EpochPolicy { enabled: true, min_lane_entries: 64, wide: WideReplay::Force }
}

/// The golden-stats fingerprint shape (duplicated; integration tests
/// cannot share items).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    runtime: u64,
    messages: u64,
    kv_checksum: u64,
    levels: [[u64; 9]; 2],
    tlb: [[u64; 2]; 2],
}

fn capture(sys: &TargetSystem, kv_checksum: u64) -> Fingerprint {
    let levels = [DomainId::X86, DomainId::ARM].map(|d| {
        let s = sys.base().mem.stats(d);
        [
            s.l1i.accesses,
            s.l1i.hits,
            s.l1d.accesses,
            s.l1d.hits,
            s.l2.accesses,
            s.l2.hits,
            s.l3.accesses,
            s.l3.hits,
            s.mem_accesses,
        ]
    });
    let tlb = [DomainId::X86, DomainId::ARM].map(|d| {
        let s = sys.base().mem.stats(d);
        [s.tlb_hits, s.tlb_misses]
    });
    Fingerprint {
        runtime: sys.runtime().raw(),
        messages: sys.base().msg.counters().total(),
        kv_checksum,
        levels,
        tlb,
    }
}

/// Runs the fixed golden workload under a tracer, with epochs either
/// left off or forced on, optionally under a fault plan.
fn golden_run(
    kind: SystemKind,
    epochs: bool,
    plan: Option<(FaultPlan, u64)>,
) -> (Fingerprint, Vec<TraceEvent>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    // Pin the policy both ways: the epoch-parallel CI job exports
    // STRAMASH_EPOCH_PARALLEL=1, and the serial leg must stay serial
    // even there.
    sys.base_mut().set_epoch_policy(if epochs { forced() } else { EpochPolicy::default() });
    if let Some((p, seed)) = plan {
        sys.install_fault_plan(p, seed);
    }
    let tracer = shared_tracer(RING_CAPACITY);
    sys.install_tracer(tracer.clone());
    let pid = sys.spawn(DomainId::X86).unwrap();
    let npb = run_npb(NpbKind::Is, &mut sys, pid, Class::Tiny, kind.migrates()).unwrap();
    assert!(npb.verified, "{kind}: NPB IS failed verification");
    let kv = run_kv(&mut sys, KvOp::Set, 500, 64).unwrap();
    let fp = capture(&sys, kv.checksum);
    let t = tracer.borrow();
    assert_eq!(t.dropped(), 0, "{kind}: the ring must be lossless for this workload");
    (fp, t.events())
}

/// First-divergence stream comparison.
fn assert_streams_identical(a: &[TraceEvent], b: &[TraceEvent], ctx: &str) {
    if let Some(i) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        panic!("{ctx}: streams diverge at event {i}:\n  left:  {:?}\n  right: {:?}", a[i], b[i]);
    }
    assert_eq!(a.len(), b.len(), "{ctx}: one stream is a prefix of the other");
}

#[test]
fn forced_epochs_leave_goldens_and_streams_untouched() {
    for kind in SystemKind::ALL {
        let (off_fp, off_ev) = golden_run(kind, false, None);
        let (on_fp, on_ev) = golden_run(kind, true, None);
        assert_eq!(off_fp, on_fp, "{kind}: epoch execution drifted from the golden fingerprint");
        assert_streams_identical(&off_ev, &on_ev, &format!("{kind}: epoch off vs on"));
    }
}

fn pair_run(
    kind: SystemKind,
    epochs: bool,
) -> (PairOutcome, (u64, u64, u64), Vec<TraceEvent>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    sys.base_mut().set_epoch_policy(if epochs { forced() } else { EpochPolicy::default() });
    let tracer = shared_tracer(RING_CAPACITY);
    sys.install_tracer(tracer.clone());
    let cfg = PairConfig { elems: 1500, phases: 8, heartbeat: true };
    let mut run = PairRun::setup(&mut sys, cfg).unwrap();
    while !run.done() {
        run.step(&mut sys).unwrap();
    }
    let out = run.finish();
    let base = sys.base();
    let fp = (
        base.timebase.clock(DomainId::X86).cycles().raw(),
        base.timebase.clock(DomainId::ARM).cycles().raw(),
        base.msg.counters().total(),
    );
    let t = tracer.borrow();
    assert_eq!(t.dropped(), 0, "{kind}: the ring must be lossless for this workload");
    (out, fp, t.events())
}

#[test]
fn pair_workload_epoch_parallel_is_bit_identical_and_goes_wide() {
    for kind in SystemKind::ALL {
        let (serial, fs, es) = pair_run(kind, false);
        let (par, fp, ep) = pair_run(kind, true);
        assert_eq!(
            serial.checksum.to_bits(),
            par.checksum.to_bits(),
            "{kind}: epoch-parallel pair run drifted from serial"
        );
        assert_eq!(fs, fp, "{kind}: clocks and messages must not move under epochs");
        assert_streams_identical(&es, &ep, &format!("{kind}: pair serial vs epoch-parallel"));
        assert_eq!(serial.parallel_epochs, 0, "{kind}: the serial leg must not go wide");
        if matches!(kind, SystemKind::Stramash | SystemKind::PopcornShm) {
            // The kinds with long private phases: the boundary replay
            // must actually run both lanes on host threads.
            assert!(
                par.parallel_epochs > 0,
                "{kind}: lanes were long and disjoint; replay must go wide ({} entries)",
                par.epoch_entries,
            );
        }
    }
}

/// How a run drives the client pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Batching off: the scalar per-access loop plan segments must
    /// reproduce exactly.
    Scalar,
    /// Data-dependent plan segments (the default pipeline).
    Batched,
    /// Plan segments under forced-wide epoch replay
    /// (`STRAMASH_EPOCH_PARALLEL=1`'s strongest setting).
    BatchedWideEpochs,
}

/// One randomized indexed gather/scatter workload: per domain, a
/// value-dependent histogram (the bucket target is the loaded key) and
/// two gathers through the *same* compiled plan with different index
/// slices — the recompute-per-call property that distinguishes
/// data-dependent segments from dense plans. Both domains run inside
/// one epoch per pass so the wide mode has two lanes to replay.
fn indexed_case(
    kind: SystemKind,
    mode: Mode,
    seed: u64,
) -> (Fingerprint, Vec<TraceEvent>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    // Pin the policy regardless of the process environment.
    sys.base_mut().set_epoch_policy(match mode {
        Mode::BatchedWideEpochs => forced(),
        _ => EpochPolicy::default(),
    });
    if mode == Mode::Scalar {
        sys.base_mut().set_batching(false);
    }
    let tracer = shared_tracer(RING_CAPACITY);
    sys.install_tracer(tracer.clone());

    let mut rng = SimRng::new(seed);
    let elems = 300 + rng.gen_range(300);
    let buckets = 24 + rng.gen_range(40);
    let keys_data: Vec<u64> = (0..elems).map(|_| rng.gen_range(buckets)).collect();
    let idx_a: Vec<u64> = (0..elems).map(|_| rng.gen_range(buckets)).collect();
    let idx_b: Vec<u64> = (0..elems).map(|_| rng.gen_range(buckets)).collect();

    let dense = ColSpec::Dense { stride: 1, offset: 0 };
    let bucket = ColSpec::Value { col: 0, offset: 0 };
    let gather = ColSpec::Index { slice: 0, offset: 0 };
    let mut checksum = 0u64;

    struct Lane {
        pid: stramash_repro::kernel::process::Pid,
        keys: stramash_repro::workloads::ArrayU64,
        hist: stramash_repro::workloads::ArrayU64,
        out: stramash_repro::workloads::ArrayU64,
        hist_plan: IndexedPlan,
        gather_plan: IndexedPlan,
    }
    let mut lanes = Vec::new();
    for d in DomainId::ALL {
        let pid = sys.spawn(d).unwrap();
        let mut c = MemoryClient::new(&mut sys, pid);
        let keys = c.alloc_u64(elems).unwrap();
        let hist = c.alloc_u64(buckets).unwrap();
        let out = c.alloc_u64(elems).unwrap();
        {
            let mut s = c.batch().unwrap();
            for (i, &k) in keys_data.iter().enumerate() {
                s.st_u64(keys, i as u64, k).unwrap();
            }
            s.fill_u64(hist, 0, buckets, 0, 2).unwrap();
        }
        lanes.push(Lane {
            pid,
            keys,
            hist,
            out,
            hist_plan: IndexedPlan::new(),
            gather_plan: IndexedPlan::new(),
        });
    }
    for pass in 0..2 {
        // One epoch spans both domains' segments, so the forced-wide
        // mode replays two real lanes at the boundary.
        let opened = sys.epoch_open();
        for lane in &mut lanes {
            let mut c = MemoryClient::new(&mut sys, lane.pid);
            {
                let mut s = c.batch().unwrap();
                s.plan_map_indexed(
                    &mut lane.hist_plan,
                    &[PlanCol::u64(lane.keys, dense), PlanCol::u64(lane.hist, bucket)],
                    &[PlanCol::u64(lane.hist, bucket)],
                    &[],
                    elems,
                    6,
                    |_, rv, wv| wv[0] = rv[1] + 1,
                )
                .unwrap();
                // Same compiled plan, different index slice per pass.
                let idx: &[u64] = if pass == 0 { &idx_a } else { &idx_b };
                s.plan_map_indexed(
                    &mut lane.gather_plan,
                    &[PlanCol::u64(lane.hist, gather)],
                    &[PlanCol::u64(lane.out, dense)],
                    &[idx],
                    elems,
                    4,
                    |i, rv, wv| {
                        wv[0] = rv[0];
                        checksum = checksum.wrapping_mul(1_000_003).wrapping_add(rv[0] ^ i);
                    },
                )
                .unwrap();
            }
            c.flush_work().unwrap();
        }
        if opened {
            sys.epoch_close();
        }
    }
    let fp = capture(&sys, checksum);
    let t = tracer.borrow();
    assert_eq!(t.dropped(), 0, "{kind}: the ring must be lossless for this workload");
    (fp, t.events())
}

/// Per-domain `(retired instructions, charged cycles)` totals — what
/// the `Accounting` event class must conserve when batching coalesces
/// `Charge`/`Retire` funnels.
fn accounting_totals(events: &[TraceEvent]) -> ([u64; 2], [u64; 2]) {
    let mut insns = [0u64; 2];
    let mut charged = [0u64; 2];
    for ev in events {
        match *ev {
            TraceEvent::Retire { domain, insns: n } => insns[domain.index()] += n,
            TraceEvent::Charge { domain, cost } => charged[domain.index()] += cost.raw(),
            _ => {}
        }
    }
    (insns, charged)
}

/// Property: for randomized key/index distributions, data-dependent
/// plan segments are cycle- and trace-identical to the scalar
/// per-access loop — with the tracer on, and under forced-wide epoch
/// replay. Seeds are fixed so any failure replays exactly.
#[test]
fn indexed_plan_segments_match_scalar_for_random_cases() {
    for kind in SystemKind::ALL {
        for seed in [0x1d0_5eed, 0x2d0_5eed, 0x3d0_5eed] {
            let (scalar_fp, scalar_ev) = indexed_case(kind, Mode::Scalar, seed);
            let (batched_fp, batched_ev) = indexed_case(kind, Mode::Batched, seed);
            assert_eq!(
                scalar_fp, batched_fp,
                "{kind}/{seed:#x}: plan segments drifted from the scalar loop"
            );
            // Batching may coalesce Charge/Retire funnels; every other
            // event class must match the scalar stream exactly, and the
            // accounting totals must be conserved.
            for class in EventClass::ALL {
                if class == EventClass::Accounting {
                    continue;
                }
                let lhs: Vec<_> =
                    batched_ev.iter().copied().filter(|e| e.class() == class).collect();
                let rhs: Vec<_> =
                    scalar_ev.iter().copied().filter(|e| e.class() == class).collect();
                assert_streams_identical(
                    &lhs,
                    &rhs,
                    &format!("{kind}/{seed:#x}: segments vs scalar, {class:?}"),
                );
            }
            assert_eq!(
                accounting_totals(&batched_ev),
                accounting_totals(&scalar_ev),
                "{kind}/{seed:#x}: accounting totals drifted"
            );

            // Forced-wide epochs keep the batched pipeline, so the full
            // stream — accounting included — must be bit-identical to
            // the batched run.
            let (wide_fp, wide_ev) = indexed_case(kind, Mode::BatchedWideEpochs, seed);
            assert_eq!(batched_fp, wide_fp, "{kind}/{seed:#x}: forced-wide epochs drifted");
            assert_streams_identical(
                &batched_ev,
                &wide_ev,
                &format!("{kind}/{seed:#x}: epochs off vs forced-wide"),
            );
        }
    }
}

#[test]
fn fault_plan_fires_identically_under_epochs() {
    // Faults inject at messaging/allocation points, which run between
    // epochs — so a seeded schedule must produce the same recoveries,
    // the same retransmits, and the same fingerprint either way.
    let plan = FaultPlan::none().with_msg_drop(0.08).with_ipi_loss(0.002).with_galloc_exhaust_at(3);
    const SEED: u64 = 0x5eed_ca5e;
    for kind in [SystemKind::PopcornShm, SystemKind::Stramash] {
        let (off_fp, off_ev) = golden_run(kind, false, Some((plan, SEED)));
        let (on_fp, on_ev) = golden_run(kind, true, Some((plan, SEED)));
        assert_eq!(off_fp, on_fp, "{kind}: epochs changed the faulted run's fingerprint");
        assert_streams_identical(&off_ev, &on_ev, &format!("{kind}: faulted, epoch off vs on"));
    }
}

#[test]
fn checkpoint_mid_run_restores_bit_identically_under_epochs() {
    let kind = SystemKind::Stramash;
    let cfg = PairConfig { elems: 1500, phases: 8, heartbeat: true };

    // Branch A: uninterrupted epoch-parallel run, checkpointing at the
    // halfway phase.
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
    sys.base_mut().set_epoch_policy(forced());
    let mut run = PairRun::setup(&mut sys, cfg).unwrap();
    for _ in 0..4 {
        run.step(&mut sys).unwrap();
    }
    let artifact = sys.checkpoint();
    let saved = run.clone();
    while !run.done() {
        run.step(&mut sys).unwrap();
    }
    let want = run.finish();
    let want_clocks = (
        sys.base().timebase.clock(DomainId::X86).cycles().raw(),
        sys.base().timebase.clock(DomainId::ARM).cycles().raw(),
    );

    // Branch B: restore into a fresh machine and finish from the saved
    // host-side state. The compiled plans in `saved` still reference
    // the pre-checkpoint TLB generation; they must revalidate, not
    // replay stale translations.
    let mut fresh = TargetSystem::build_with(kind, sys.config().clone()).unwrap();
    fresh.restore(&artifact).unwrap();
    fresh.base_mut().set_epoch_policy(forced());
    let mut resumed = saved;
    while !resumed.done() {
        resumed.step(&mut fresh).unwrap();
    }
    let got = resumed.finish();
    let got_clocks = (
        fresh.base().timebase.clock(DomainId::X86).cycles().raw(),
        fresh.base().timebase.clock(DomainId::ARM).cycles().raw(),
    );

    assert_eq!(got.checksum.to_bits(), want.checksum.to_bits(), "restored run drifted");
    assert_eq!(got.phases, want.phases);
    assert_eq!(got_clocks, want_clocks, "restored clocks drifted from the uninterrupted run");
}
