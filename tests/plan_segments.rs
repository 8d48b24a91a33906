//! Randomized differential check of data-dependent plan segments.
//!
//! `plan_map_indexed` compiles gather/scatter loops whose addresses
//! depend on loaded values or on an index slice handed in per call.
//! For every [`SystemKind`] and a few fixed seeds, the batched plan
//! pipeline must reproduce the scalar per-access loop (batching off):
//! the same golden-style fingerprint, the same trace stream in every
//! event class but `Accounting`, and the same retired-instruction and
//! charged-cycle totals.

use stramash_repro::kernel::system::OsSystem;
use stramash_repro::prelude::*;
use stramash_repro::sim::rng::SimRng;
use stramash_repro::sim::trace::{shared_tracer, EventClass, TraceEvent};
use stramash_repro::workloads::target::{SystemKind, TargetSystem};
use stramash_repro::workloads::{ColSpec, IndexedPlan, MemoryClient, PlanCol};

/// Lossless ring for the workload.
const RING_CAPACITY: usize = 1 << 20;

/// The golden-stats fingerprint shape (duplicated; integration tests
/// cannot share items).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    runtime: u64,
    messages: u64,
    checksum: u64,
    levels: [[u64; 9]; 2],
    tlb: [[u64; 2]; 2],
}

fn capture(sys: &TargetSystem, checksum: u64) -> Fingerprint {
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
        checksum,
        levels,
        tlb,
    }
}

/// First-divergence stream comparison.
fn assert_streams_identical(a: &[TraceEvent], b: &[TraceEvent], ctx: &str) {
    if let Some(i) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        panic!(
            "{ctx}: streams diverge at event {i}:\n  left:  {:?}\n  right: {:?}",
            a[i], b[i]
        );
    }
    assert_eq!(
        a.len(),
        b.len(),
        "{ctx}: one stream is a prefix of the other"
    );
}

/// How a run drives the client pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Batching off: the scalar per-access loop plan segments must
    /// reproduce exactly.
    Scalar,
    /// Data-dependent plan segments (the default pipeline).
    Batched,
}

/// One randomized indexed gather/scatter workload: per domain, a
/// value-dependent histogram (the bucket target is the loaded key) and
/// two gathers through the *same* compiled plan with different index
/// slices — the recompute-per-call property that distinguishes
/// data-dependent segments from dense plans.
fn indexed_case(kind: SystemKind, mode: Mode, seed: u64) -> (Fingerprint, Vec<TraceEvent>) {
    let mut sys = TargetSystem::build(kind, HardwareModel::Shared).unwrap();
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

    let dense = ColSpec::Dense {
        stride: 1,
        offset: 0,
    };
    let bucket = ColSpec::Value { col: 0, offset: 0 };
    let gather = ColSpec::Index {
        slice: 0,
        offset: 0,
    };
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
        for lane in &mut lanes {
            let mut c = MemoryClient::new(&mut sys, lane.pid);
            {
                let mut s = c.batch().unwrap();
                s.plan_map_indexed(
                    &mut lane.hist_plan,
                    &[
                        PlanCol::u64(lane.keys, dense),
                        PlanCol::u64(lane.hist, bucket),
                    ],
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
    }
    let fp = capture(&sys, checksum);
    let t = tracer.borrow();
    assert_eq!(
        t.dropped(),
        0,
        "{kind}: the ring must be lossless for this workload"
    );
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
/// per-access loop, with the tracer on. Seeds are fixed so any failure
/// replays exactly.
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
                let lhs: Vec<_> = batched_ev
                    .iter()
                    .copied()
                    .filter(|e| e.class() == class)
                    .collect();
                let rhs: Vec<_> = scalar_ev
                    .iter()
                    .copied()
                    .filter(|e| e.class() == class)
                    .collect();
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
        }
    }
}
