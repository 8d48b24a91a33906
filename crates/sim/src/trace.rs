//! Deterministic event tracing and the metrics registry.
//!
//! The paper's whole evaluation (Figures 5–14, Tables 2–4) is an
//! exercise in *observing* the fused stack; end-of-run [`DomainStats`]
//! totals cannot show *when* or *why* cycles were spent. This module is
//! the observability layer: a bounded, preallocated ring of typed
//! [`TraceEvent`]s emitted by every layer of the stack (cache, MESI,
//! TLB, messaging, IPI, faults, futexes, migration, DSM) plus a
//! [`MetricsRegistry`] of named counters and log-scaled latency
//! histograms.
//!
//! # Determinism contract
//!
//! Tracing is *passive*: recording an event never charges a cycle,
//! never consumes RNG, and never changes simulated behaviour — the
//! golden-stats fingerprints are byte-identical with tracing on or off.
//! Events carry simulated [`Cycles`] costs (never host time), so:
//!
//! * two runs of the same seed produce **identical full event
//!   streams**;
//! * the batched client pipeline produces **identical per-class event
//!   streams** ([`EventClass`]) to scalar ops for every class except
//!   [`EventClass::Accounting`] — batching legitimately coalesces
//!   `charge`/`retire` bookkeeping calls (same totals, coarser grain),
//!   which is host-side granularity, not simulated behaviour.
//!
//! The ring is fixed-capacity and allocation-free in steady state: once
//! full it overwrites the oldest events and counts them in
//! [`Tracer::dropped`].

use crate::stats::DomainStats;
use crate::time::{Cycles, DomainId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Cache level that satisfied an access (mirrors the memory system's
/// hit level without depending on the `mem` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// Satisfied by the L1 (instruction or data).
    L1,
    /// Satisfied by the unified L2.
    L2,
    /// Satisfied by the LLC.
    L3,
    /// Went to DRAM.
    Memory,
}

/// Which memory pool satisfied a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceMemClass {
    /// The accessing domain's local memory.
    Local,
    /// The other domain's memory.
    Remote,
    /// The shared pool.
    RemoteShared,
}

/// MESI coherence states, as recorded in transition events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceMesi {
    /// Modified (dirty, exclusive).
    Modified,
    /// Exclusive (clean, sole owner).
    Exclusive,
    /// Shared.
    Shared,
    /// Invalid.
    Invalid,
}

/// Futex operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FutexOp {
    /// The lock was acquired uncontended.
    Acquire,
    /// The caller found the lock held and queued as a waiter.
    Wait,
    /// An unlock woke a waiter.
    Wake,
}

/// Coarse classification of events, used by the determinism contract
/// (see the module docs) and by the textual report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventClass {
    /// Cache accesses, evictions, snoops and MESI transitions.
    Cache,
    /// Software-TLB lookups and invalidations.
    Tlb,
    /// Ring-buffer / TCP message traffic.
    Msg,
    /// Cross-ISA interrupts.
    Ipi,
    /// Page faults.
    Fault,
    /// Futex synchronisation.
    Sync,
    /// Thread migrations.
    Migration,
    /// DSM page replication / invalidation / transfer (Popcorn).
    Dsm,
    /// Clock bookkeeping (`charge` / `retire` funnels). Excluded from
    /// the batched-vs-scalar stream comparison: batching coalesces
    /// these calls (identical totals, coarser granularity).
    Accounting,
    /// Crash detection and recovery: watchdog verdicts, checkpoint
    /// captures, restore/replay progress.
    Recovery,
}

impl EventClass {
    /// Every class, in report order.
    pub const ALL: [EventClass; 10] = [
        EventClass::Cache,
        EventClass::Tlb,
        EventClass::Msg,
        EventClass::Ipi,
        EventClass::Fault,
        EventClass::Sync,
        EventClass::Migration,
        EventClass::Dsm,
        EventClass::Accounting,
        EventClass::Recovery,
    ];
}

/// One typed trace event. `Copy` and free of heap data so recording is
/// a store into the preallocated ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// One cache-hierarchy access (the parent event; any snoop /
    /// eviction / MESI sub-events it caused precede it in the stream).
    CacheAccess {
        /// Accessing domain.
        domain: DomainId,
        /// Line-aligned physical address.
        addr: u64,
        /// Write access.
        write: bool,
        /// Instruction fetch (else data).
        ifetch: bool,
        /// Level that satisfied the access.
        level: TraceLevel,
        /// DRAM pool classification (DRAM accesses only).
        class: Option<TraceMemClass>,
        /// The access involved a cross-domain snoop.
        snooped: bool,
        /// Simulated cost of the access.
        cost: Cycles,
    },
    /// A line was evicted from an LLC.
    CacheEvict {
        /// Domain whose hierarchy evicted.
        domain: DomainId,
        /// Line-aligned physical address.
        addr: u64,
        /// The line was dirty (written back).
        dirty: bool,
    },
    /// A cross-domain snoop hit the peer hierarchy.
    Snoop {
        /// Domain that issued the snooping access.
        domain: DomainId,
        /// Line-aligned physical address.
        addr: u64,
        /// Invalidating snoop (else data-sharing).
        invalidate: bool,
    },
    /// A MESI state change on a cached line (only recorded when the
    /// state actually changes).
    MesiTransition {
        /// Domain whose cache holds the line.
        domain: DomainId,
        /// Line-aligned physical address.
        addr: u64,
        /// Previous state.
        from: TraceMesi,
        /// New state.
        to: TraceMesi,
    },
    /// A software-TLB lookup.
    TlbLookup {
        /// Looking-up domain.
        domain: DomainId,
        /// The translation was cached.
        hit: bool,
    },
    /// A TLB / translation-session invalidation (munmap, mprotect,
    /// PTE reconfiguration).
    TlbInvalidate {
        /// Domain whose TLB was shot down.
        domain: DomainId,
        /// Virtual address invalidated.
        va: u64,
    },
    /// A logical message was sent (retransmissions are separate
    /// [`TraceEvent::MsgRetransmit`] events).
    MsgSend {
        /// Sending domain.
        from: DomainId,
        /// Message kind name.
        ty: &'static str,
        /// Header + payload bytes.
        bytes: u64,
        /// Sender-side cost, including any retries.
        cost: Cycles,
    },
    /// The receiver consumed a message from its ring.
    MsgReceive {
        /// Receiving domain.
        to: DomainId,
        /// Message kind name.
        ty: &'static str,
        /// Header + payload bytes.
        bytes: u64,
        /// Receiver-side cost.
        cost: Cycles,
    },
    /// A send attempt timed out and was retransmitted.
    MsgRetransmit {
        /// Sending domain.
        from: DomainId,
        /// Message kind name.
        ty: &'static str,
        /// 1-based attempt number that failed.
        attempt: u32,
    },
    /// A send found the peer ring full and stalled for it to drain.
    MsgBackpressure {
        /// Sending domain.
        from: DomainId,
    },
    /// A cross-ISA IPI was delivered.
    Ipi {
        /// Sending domain (the receiver is the other one).
        from: DomainId,
        /// Fabric cost charged to the sender, including injected-loss
        /// retries.
        cost: Cycles,
    },
    /// A page fault was taken and serviced.
    PageFault {
        /// Faulting domain.
        domain: DomainId,
        /// Faulting virtual address.
        va: u64,
        /// Write fault.
        write: bool,
        /// Simulated service cost (trap through resolution).
        cost: Cycles,
    },
    /// A thread migrated between domains.
    Migration {
        /// Source domain.
        from: DomainId,
        /// Destination domain.
        to: DomainId,
    },
    /// A futex operation.
    Futex {
        /// Acting domain.
        domain: DomainId,
        /// What happened.
        op: FutexOp,
        /// Futex word virtual address.
        va: u64,
    },
    /// DSM replicated a page to a domain (Popcorn).
    DsmReplicate {
        /// Domain that now holds a copy.
        to: DomainId,
        /// Page virtual address.
        page_va: u64,
    },
    /// DSM invalidated a replicated page (Popcorn).
    DsmInvalidate {
        /// Domain whose copy was shot down.
        to: DomainId,
        /// Page virtual address.
        page_va: u64,
    },
    /// A DSM page shipment over the messaging layer.
    DsmTransfer {
        /// Sending domain.
        from: DomainId,
        /// Receiving domain.
        to: DomainId,
        /// Payload bytes shipped.
        bytes: u64,
        /// Simulated round-trip cost.
        cost: Cycles,
    },
    /// Memory-feedback cycles charged to a domain clock (the
    /// `BaseSystem::charge` funnel).
    Charge {
        /// Charged domain.
        domain: DomainId,
        /// Cycles added to the clock.
        cost: Cycles,
    },
    /// Instructions retired on a domain clock (IPC 1: `insns` cycles).
    Retire {
        /// Retiring domain.
        domain: DomainId,
        /// Instructions retired.
        insns: u64,
    },
    /// The watchdog declared a domain dead after a run of missed
    /// heartbeats.
    Watchdog {
        /// The domain declared dead.
        domain: DomainId,
        /// Consecutive heartbeats missed at the declaration.
        missed: u32,
    },
    /// A recovery stage completed for a crashed domain ("quarantine",
    /// "restore", "replay", "degrade").
    Recovery {
        /// The crashed domain being recovered from.
        domain: DomainId,
        /// Which recovery stage finished.
        stage: &'static str,
    },
    /// A checkpoint of the full machine state was captured.
    Checkpoint {
        /// Domain whose supervisor initiated the capture.
        domain: DomainId,
        /// Serialized artifact size in bytes.
        bytes: u64,
    },
}

impl TraceEvent {
    /// The event's coarse class (see [`EventClass`]).
    #[must_use]
    pub fn class(&self) -> EventClass {
        match self {
            TraceEvent::CacheAccess { .. }
            | TraceEvent::CacheEvict { .. }
            | TraceEvent::Snoop { .. }
            | TraceEvent::MesiTransition { .. } => EventClass::Cache,
            TraceEvent::TlbLookup { .. } | TraceEvent::TlbInvalidate { .. } => EventClass::Tlb,
            TraceEvent::MsgSend { .. }
            | TraceEvent::MsgReceive { .. }
            | TraceEvent::MsgRetransmit { .. }
            | TraceEvent::MsgBackpressure { .. } => EventClass::Msg,
            TraceEvent::Ipi { .. } => EventClass::Ipi,
            TraceEvent::PageFault { .. } => EventClass::Fault,
            TraceEvent::Futex { .. } => EventClass::Sync,
            TraceEvent::Migration { .. } => EventClass::Migration,
            TraceEvent::DsmReplicate { .. }
            | TraceEvent::DsmInvalidate { .. }
            | TraceEvent::DsmTransfer { .. } => EventClass::Dsm,
            TraceEvent::Charge { .. } | TraceEvent::Retire { .. } => EventClass::Accounting,
            TraceEvent::Watchdog { .. }
            | TraceEvent::Recovery { .. }
            | TraceEvent::Checkpoint { .. } => EventClass::Recovery,
        }
    }

    /// Short static name (used by the Chrome exporter and reports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::CacheAccess { .. } => "cache_access",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::Snoop { .. } => "snoop",
            TraceEvent::MesiTransition { .. } => "mesi",
            TraceEvent::TlbLookup { .. } => "tlb_lookup",
            TraceEvent::TlbInvalidate { .. } => "tlb_invalidate",
            TraceEvent::MsgSend { .. } => "msg_send",
            TraceEvent::MsgReceive { .. } => "msg_receive",
            TraceEvent::MsgRetransmit { .. } => "msg_retransmit",
            TraceEvent::MsgBackpressure { .. } => "msg_backpressure",
            TraceEvent::Ipi { .. } => "ipi",
            TraceEvent::PageFault { .. } => "page_fault",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::Futex { .. } => "futex",
            TraceEvent::DsmReplicate { .. } => "dsm_replicate",
            TraceEvent::DsmInvalidate { .. } => "dsm_invalidate",
            TraceEvent::DsmTransfer { .. } => "dsm_transfer",
            TraceEvent::Charge { .. } => "charge",
            TraceEvent::Retire { .. } => "retire",
            TraceEvent::Watchdog { .. } => "watchdog_death",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::Checkpoint { .. } => "checkpoint",
        }
    }

    /// The domain the event is attributed to.
    #[must_use]
    pub fn domain(&self) -> DomainId {
        match *self {
            TraceEvent::CacheAccess { domain, .. }
            | TraceEvent::CacheEvict { domain, .. }
            | TraceEvent::Snoop { domain, .. }
            | TraceEvent::MesiTransition { domain, .. }
            | TraceEvent::TlbLookup { domain, .. }
            | TraceEvent::TlbInvalidate { domain, .. }
            | TraceEvent::PageFault { domain, .. }
            | TraceEvent::Futex { domain, .. }
            | TraceEvent::Charge { domain, .. }
            | TraceEvent::Retire { domain, .. }
            | TraceEvent::Watchdog { domain, .. }
            | TraceEvent::Recovery { domain, .. }
            | TraceEvent::Checkpoint { domain, .. } => domain,
            TraceEvent::MsgSend { from, .. }
            | TraceEvent::MsgRetransmit { from, .. }
            | TraceEvent::MsgBackpressure { from, .. }
            | TraceEvent::Ipi { from, .. }
            | TraceEvent::Migration { from, .. }
            | TraceEvent::DsmTransfer { from, .. } => from,
            TraceEvent::MsgReceive { to, .. }
            | TraceEvent::DsmReplicate { to, .. }
            | TraceEvent::DsmInvalidate { to, .. } => to,
        }
    }
}

/// A log₂-bucketed latency histogram over simulated cycles.
///
/// Bucket `i` counts observations `v` with `floor(log2(v)) == i`
/// (zero-cycle observations land in bucket 0), which gives the wide
/// dynamic range of the stack's latencies (4-cycle L1 hits to 157 500-
/// cycle TCP round trips) in 64 fixed buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    saturated: bool,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0, saturated: false }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency observation.
    pub fn observe(&mut self, cycles: Cycles) {
        let v = cycles.raw();
        let bucket = if v == 0 { 0 } else { 63 - v.leading_zeros() as usize };
        self.buckets[bucket] += 1;
        self.count += 1;
        // The running sum can overflow u64 on very long runs; an
        // overflowed sum makes `mean()` silently bogus, so the overflow
        // is latched in `saturated` and surfaced by `render()` instead
        // of being swallowed.
        match self.sum.checked_add(v) {
            Some(s) => self.sum = s,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (zero when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (zero when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether the running `sum` overflowed u64. When set, `mean()` is a
    /// lower bound (computed from the pinned `u64::MAX` sum), not the
    /// true mean; percentiles and bucket counts remain exact.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Raw bucket counts; bucket `i` covers `[2^i, 2^(i+1))` cycles.
    #[must_use]
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Estimates the `p`-th percentile (`0 < p < 100`) from the log₂
    /// buckets.
    ///
    /// The rank is `ceil(p/100 · count)` (nearest-rank definition), and
    /// the estimate returned for a rank landing in bucket `i` is the
    /// bucket's *inclusive upper bound* `2^(i+1) − 1`, clamped into
    /// `[min, max]` so single-bucket histograms and the extreme ranks
    /// report exact observed values. Because bucket `i` covers the span
    /// `[2^i, 2^(i+1))`, the estimate can overstate the true percentile
    /// by at most one bucket — a factor of <2× — and never understates
    /// it below the bucket holding the true value. `p <= 0` returns
    /// `min`, `p >= 100` returns `max`, and an empty histogram returns 0.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min();
        }
        if p >= 100.0 {
            return self.max;
        }
        // Nearest-rank: the smallest rank r (1-based) with
        // r/count ≥ p/100. ceil() on the product is exact enough here —
        // count is a u64 but practical histograms stay far below 2^53
        // observations, and a ±1 rank slip only matters at bucket
        // boundaries already covered by the documented one-bucket error.
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// One-line rendering: `count / min / p50 / p99 / max` plus the
    /// occupied log₂ buckets. The tail percentiles replace the old
    /// mean-only line, which was misleading for the heavily skewed
    /// distributions this stack produces (a handful of 157 500-cycle TCP
    /// round trips buried under millions of 4-cycle L1 hits). The mean
    /// is still shown, flagged `mean>=` when the sum saturated.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut s = format!(
            "n={} min={} p50={} p99={} max={} {}{:.0}{}",
            self.count,
            self.min(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max,
            if self.saturated { "mean>=" } else { "mean=" },
            self.mean(),
            if self.saturated { " (sum saturated)" } else { "" },
        );
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let _ = write!(s, "  [2^{i}:{c}]");
            }
        }
        s
    }
}

/// A registry of named counters and latency histograms.
///
/// Names are `&'static str` so the registry stays allocation-free per
/// observation after the first touch of each name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LatencyHistogram>,
}

/// Histogram name: full cross-kernel request/response round trip.
pub const HIST_MSG_ROUND_TRIP: &str = "msg_round_trip_cycles";
/// Histogram name: page-fault service latency (trap to resolution).
pub const HIST_FAULT_SERVICE: &str = "fault_service_cycles";
/// Histogram name: DSM page-shipment latency (Popcorn).
pub const HIST_DSM_TRANSFER: &str = "dsm_transfer_cycles";
/// Histogram name: contended-futex wait-path latency.
pub const HIST_FUTEX_WAIT: &str = "futex_wait_cycles";
/// Histogram name: KV-serving end-to-end request latency (arrival to
/// response, including queueing behind the worker).
pub const HIST_KVSERVE_REQUEST: &str = "kvserve_request_cycles";
/// Histogram name: KV-serving queueing delay (arrival to dispatch).
pub const HIST_KVSERVE_QUEUE: &str = "kvserve_queue_cycles";
/// Counter name: domains declared dead by the watchdog.
pub const CTR_WATCHDOG_DEATHS: &str = "watchdog_deaths";
/// Counter name: restart-from-checkpoint recoveries performed.
pub const CTR_RECOVERY_RESTARTS: &str = "recovery_restarts";
/// Counter name: checkpoints captured.
pub const CTR_CHECKPOINTS: &str = "checkpoints_taken";

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increments the named counter.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a latency observation in the named histogram.
    pub fn observe(&mut self, name: &'static str, cycles: Cycles) {
        self.histograms.entry(name).or_default().observe(cycles);
    }

    /// Reads a histogram, if any observation was recorded under `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Folds a domain's end-of-run [`DomainStats`] block into named
    /// counters, prefixed with `label` (e.g. `x86.tlb_hits`). This is
    /// what ties the totals-only world to the registry: after a run the
    /// registry holds both the event-derived metrics and the
    /// authoritative counters side by side.
    pub fn fold_domain_stats(&mut self, label: &str, stats: &DomainStats) {
        // Static names for the two domains' standard prefixes keep the
        // common path allocation-free.
        let entries: [(&str, u64); 12] = [
            ("l1_hits", stats.l1i.hits + stats.l1d.hits),
            ("l1_accesses", stats.l1i.accesses + stats.l1d.accesses),
            ("l2_hits", stats.l2.hits),
            ("l2_accesses", stats.l2.accesses),
            ("l3_hits", stats.l3.hits),
            ("l3_accesses", stats.l3.accesses),
            ("ipi", stats.ipi),
            ("instructions", stats.instructions),
            ("mem_accesses", stats.mem_accesses),
            ("tlb_hits", stats.tlb_hits),
            ("tlb_misses", stats.tlb_misses),
            ("runtime_cycles", stats.runtime.raw()),
        ];
        for (name, v) in entries {
            let key: &'static str = Self::static_key(label, name);
            self.add(key, v);
        }
    }

    /// Interns `label.name` for the two standard domain labels; other
    /// labels leak one small string per unique key (registries are
    /// per-run diagnostics, not long-lived daemons).
    fn static_key(label: &str, name: &str) -> &'static str {
        Box::leak(format!("{label}.{name}").into_boxed_str())
    }

    /// Renders every counter and histogram, one per line.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(s, "counter {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(s, "histogram {name}: {}", h.render());
        }
        s
    }
}

/// The bounded event ring plus its metrics registry.
///
/// Preallocated at construction; recording never allocates. When the
/// ring wraps, the oldest events are overwritten and counted in
/// [`Tracer::dropped`].
#[derive(Debug)]
pub struct Tracer {
    ring: Vec<TraceEvent>,
    head: usize,
    capacity: usize,
    dropped: u64,
    recorded: u64,
    metrics: MetricsRegistry,
}

/// Shared handle to a [`Tracer`], cloned into every layer of the stack
/// (mirrors `SharedFaultInjector`).
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Creates a [`SharedTracer`] with the given ring capacity.
#[must_use]
pub fn shared_tracer(capacity: usize) -> SharedTracer {
    Rc::new(RefCell::new(Tracer::with_capacity(capacity)))
}

impl Tracer {
    /// Creates a tracer whose ring holds `capacity` events (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            ring: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
            recorded: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Records one event. O(1), allocation-free once the ring is full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.recorded += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no event has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Oldest events overwritten by ring wrap-around.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (held + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The held events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.ring.len() < self.capacity {
            self.ring.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
            out
        }
    }

    /// Clears the ring and drop counter (metrics are preserved).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.dropped = 0;
        self.recorded = 0;
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the metrics registry.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }
}

/// Rebuilds per-domain [`DomainStats`] blocks from an event stream
/// alone — the proof that the trace carries everything the end-of-run
/// report prints. Requires a stream with no wrap-around drops.
///
/// Snoop side counters (`snoop_data_hits` / `snoop_invalidations`) are
/// attributed from [`TraceEvent::Snoop`] events to the *issuing*
/// domain's stats block only when the memory system does the same, so
/// they are intentionally left at zero here; the `report()` block does
/// not print them. Fault-injection counters reconstruct to zero —
/// injectors and tracers are separate harnesses.
#[must_use]
pub fn reconstruct_domain_stats(events: &[TraceEvent]) -> [DomainStats; 2] {
    let mut out = [DomainStats::new(), DomainStats::new()];
    for ev in events {
        match *ev {
            TraceEvent::CacheAccess { domain, ifetch, level, class, .. } => {
                let s = &mut out[domain.index()];
                if ifetch {
                    s.l1i.record(level == TraceLevel::L1);
                } else {
                    s.l1d.record(level == TraceLevel::L1);
                    s.mem_accesses += 1;
                }
                if level != TraceLevel::L1 {
                    s.l2.record(level == TraceLevel::L2);
                }
                if matches!(level, TraceLevel::L3 | TraceLevel::Memory) {
                    s.l3.record(level == TraceLevel::L3);
                }
                match class {
                    Some(TraceMemClass::Local) => s.local_mem_hits += 1,
                    Some(TraceMemClass::Remote) => s.remote_mem_hits += 1,
                    Some(TraceMemClass::RemoteShared) => s.remote_shared_mem_hits += 1,
                    None => {}
                }
            }
            TraceEvent::TlbLookup { domain, hit } => {
                let s = &mut out[domain.index()];
                if hit {
                    s.tlb_hits += 1;
                } else {
                    s.tlb_misses += 1;
                }
            }
            TraceEvent::Ipi { from, .. } => out[from.index()].ipi += 1,
            TraceEvent::Retire { domain, insns } => {
                let s = &mut out[domain.index()];
                s.instructions += insns;
                // IPC 1: every retired instruction is one cycle.
                s.runtime += Cycles::new(insns);
            }
            TraceEvent::Charge { domain, cost } => out[domain.index()].runtime += cost,
            _ => {}
        }
    }
    out
}

/// Per-phase, per-domain cycle totals in the style of the paper's
/// Figure 9/11 breakdowns. Phases are delimited by
/// [`TraceEvent::Migration`] events (phase 0 runs up to the first
/// migration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Instruction cycles (retired instructions at IPC 1).
    pub inst_cycles: [u64; 2],
    /// Memory/messaging feedback cycles charged.
    pub mem_cycles: [u64; 2],
    /// Cache accesses issued (instruction + data).
    pub cache_accesses: [u64; 2],
    /// Messages sent.
    pub msgs: [u64; 2],
    /// IPIs sent.
    pub ipis: [u64; 2],
    /// Page faults taken.
    pub faults: [u64; 2],
    /// Recovery-class events (watchdog deaths, recovery stages,
    /// checkpoints) attributed to the domain.
    pub recoveries: [u64; 2],
}

/// Splits an event stream into per-phase totals at migration events.
#[must_use]
pub fn phase_breakdown(events: &[TraceEvent]) -> Vec<PhaseTotals> {
    let mut phases = Vec::new();
    let mut cur = PhaseTotals::default();
    for ev in events {
        if let TraceEvent::Migration { .. } = ev {
            phases.push(std::mem::take(&mut cur));
            continue;
        }
        match *ev {
            TraceEvent::Retire { domain, insns } => cur.inst_cycles[domain.index()] += insns,
            TraceEvent::Charge { domain, cost } => cur.mem_cycles[domain.index()] += cost.raw(),
            TraceEvent::CacheAccess { domain, .. } => cur.cache_accesses[domain.index()] += 1,
            TraceEvent::MsgSend { from, .. } => cur.msgs[from.index()] += 1,
            TraceEvent::Ipi { from, .. } => cur.ipis[from.index()] += 1,
            TraceEvent::PageFault { domain, .. } => cur.faults[domain.index()] += 1,
            TraceEvent::Watchdog { domain, .. }
            | TraceEvent::Recovery { domain, .. }
            | TraceEvent::Checkpoint { domain, .. } => cur.recoveries[domain.index()] += 1,
            _ => {}
        }
    }
    phases.push(cur);
    phases
}

/// Renders the Figure 9/11-style per-phase textual report.
#[must_use]
pub fn render_phase_report(events: &[TraceEvent]) -> String {
    use fmt::Write as _;
    let phases = phase_breakdown(events);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<7} {:<5} {:>14} {:>14} {:>12} {:>8} {:>6} {:>7} {:>6}",
        "phase", "dom", "inst_cycles", "mem_cycles", "cache_acc", "msgs", "ipis", "faults", "recov"
    );
    for (i, p) in phases.iter().enumerate() {
        for d in DomainId::ALL {
            let j = d.index();
            let _ = writeln!(
                s,
                "{:<7} {:<5} {:>14} {:>14} {:>12} {:>8} {:>6} {:>7} {:>6}",
                i,
                d.to_string(),
                p.inst_cycles[j],
                p.mem_cycles[j],
                p.cache_accesses[j],
                p.msgs[j],
                p.ipis[j],
                p.faults[j],
                p.recoveries[j]
            );
        }
    }
    let _ = writeln!(s, "phases: {} (split at thread migrations)", phases.len());
    s
}

/// Exports the stream as Chrome `trace_event` JSON (load in
/// `chrome://tracing` or Perfetto).
///
/// Timestamps are reconstructed per domain by prefix-summing the
/// authoritative clock events ([`TraceEvent::Charge`] /
/// [`TraceEvent::Retire`]), which render as duration slices; every
/// other event renders as an instant at its domain's current simulated
/// time. The `ts`/`dur` unit is the simulated cycle (the viewer labels
/// it µs; divide by the clock rate for wall time).
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use fmt::Write as _;
    let mut now = [0u64; 2];
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for ev in events {
        let d = ev.domain().index();
        let (ph, dur) = match *ev {
            TraceEvent::Charge { cost, .. } => ("X", Some(cost.raw())),
            TraceEvent::Retire { insns, .. } => ("X", Some(insns)),
            _ => ("i", None),
        };
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{:?}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
            ev.name(),
            ev.class(),
            ph,
            d,
            d,
            now[d]
        );
        if let Some(dur) = dur {
            let _ = write!(s, ",\"dur\":{dur}");
            now[d] += dur;
        } else {
            s.push_str(",\"s\":\"t\"");
        }
        s.push('}');
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_access(domain: DomainId, level: TraceLevel) -> TraceEvent {
        TraceEvent::CacheAccess {
            domain,
            addr: 0x1000,
            write: false,
            ifetch: false,
            level,
            class: if level == TraceLevel::Memory { Some(TraceMemClass::Local) } else { None },
            snooped: false,
            cost: Cycles::new(4),
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Tracer::with_capacity(3);
        for i in 0..5 {
            t.record(TraceEvent::Retire { domain: DomainId::X86, insns: i });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        let evs = t.events();
        // Oldest two (0, 1) were overwritten; 2, 3, 4 remain in order.
        assert_eq!(
            evs,
            vec![
                TraceEvent::Retire { domain: DomainId::X86, insns: 2 },
                TraceEvent::Retire { domain: DomainId::X86, insns: 3 },
                TraceEvent::Retire { domain: DomainId::X86, insns: 4 },
            ]
        );
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_is_alloc_free_in_steady_state() {
        let mut t = Tracer::with_capacity(8);
        for _ in 0..8 {
            t.record(ev_access(DomainId::X86, TraceLevel::L1));
        }
        let ptr = t.ring.as_ptr();
        for _ in 0..100 {
            t.record(ev_access(DomainId::ARM, TraceLevel::L2));
        }
        // The backing storage never reallocated.
        assert_eq!(ptr, t.ring.as_ptr());
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    fn event_classes_cover_taxonomy() {
        assert_eq!(ev_access(DomainId::X86, TraceLevel::L1).class(), EventClass::Cache);
        assert_eq!(
            TraceEvent::TlbLookup { domain: DomainId::ARM, hit: true }.class(),
            EventClass::Tlb
        );
        assert_eq!(
            TraceEvent::Ipi { from: DomainId::X86, cost: Cycles::new(4200) }.class(),
            EventClass::Ipi
        );
        assert_eq!(
            TraceEvent::Charge { domain: DomainId::X86, cost: Cycles::ZERO }.class(),
            EventClass::Accounting
        );
        assert_eq!(
            TraceEvent::Migration { from: DomainId::X86, to: DomainId::ARM }.class(),
            EventClass::Migration
        );
        assert_eq!(
            TraceEvent::MsgReceive { to: DomainId::ARM, ty: "KvRequest", bytes: 64, cost: Cycles::ZERO }
                .domain(),
            DomainId::ARM
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = LatencyHistogram::new();
        h.observe(Cycles::new(0));
        h.observe(Cycles::new(1));
        h.observe(Cycles::new(4));
        h.observe(Cycles::new(7));
        h.observe(Cycles::new(157_500));
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 157_500);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[2], 2); // 4 and 7
        assert_eq!(h.buckets()[17], 1); // 2^17 = 131072 ≤ 157500 < 2^18
        assert!(h.render().contains("n=5"));
        assert!((h.mean() - (157_512.0 / 5.0)).abs() < 1e-9);
    }

    #[test]
    fn percentile_exact_at_bucket_boundaries() {
        // 100 observations of exactly 2^10 = 1024: every percentile must
        // report a value inside bucket 10's span [1024, 2047], and the
        // min/max clamp makes it exactly 1024 (single-valued histogram).
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.observe(Cycles::new(1024));
        }
        for p in [0.1, 1.0, 50.0, 99.0, 99.9] {
            assert_eq!(h.percentile(p), 1024, "p{p}");
        }

        // Exact two-point distribution: 99 at 10 cycles, 1 at 1000
        // cycles. Nearest-rank p99 is the 99th of 100 → still the low
        // value's bucket (bucket 3, upper bound 15); p99.5 crosses into
        // the outlier's bucket (bucket 9, upper bound 1023, clamped to
        // the observed max 1000).
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.observe(Cycles::new(10));
        }
        h.observe(Cycles::new(1000));
        assert_eq!(h.percentile(50.0), 15); // bucket 3 = [8,16) upper bound
        assert_eq!(h.percentile(99.0), 15);
        assert_eq!(h.percentile(99.5), 1000); // bucket 9 upper 1023, clamped to max
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(h.percentile(0.0), 10);
        // The ±1-bucket contract: the p50 estimate (15) is within a
        // factor of 2 above the true median (10) and not below it.
        assert!(h.percentile(50.0) >= 10 && h.percentile(50.0) < 20);

        // Uniform one-per-bucket spread pinned at lower bounds: ranks
        // map 1:1 onto buckets, so the estimator must return each
        // bucket's upper bound as ranks advance monotonically.
        let mut h = LatencyHistogram::new();
        for i in 0..8u32 {
            h.observe(Cycles::new(1u64 << i)); // 1,2,4,...,128 → buckets 0..=7
        }
        assert_eq!(h.percentile(12.5), 1); // rank 1 → bucket 0 upper=1
        assert_eq!(h.percentile(25.0), 3); // rank 2 → bucket 1 upper=3
        assert_eq!(h.percentile(50.0), 15); // rank 4 → bucket 3 upper=15
        assert_eq!(h.percentile(99.0), 128); // rank 8 → bucket 7 upper 255 clamped to max

        // Empty histogram.
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn percentile_estimate_monotone_in_p() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..200u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            h.observe(Cycles::new(x >> 40));
        }
        let mut last = 0u64;
        for p in 1..=99 {
            let v = h.percentile(f64::from(p));
            assert!(v >= last, "percentile not monotone at p{p}: {v} < {last}");
            last = v;
        }
        assert!(h.percentile(99.0) <= h.max());
        assert!(h.percentile(1.0) >= h.min());
    }

    #[test]
    fn sum_saturation_is_latched_and_rendered() {
        let mut h = LatencyHistogram::new();
        h.observe(Cycles::new(u64::MAX / 2));
        assert!(!h.is_saturated());
        assert!(!h.render().contains("saturated"));
        h.observe(Cycles::new(u64::MAX / 2));
        h.observe(Cycles::new(u64::MAX / 2));
        assert!(h.is_saturated());
        assert_eq!(h.sum(), u64::MAX);
        // Count/min/max/percentiles stay exact; only the mean degrades
        // to a lower bound, and render says so.
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX / 2);
        assert_eq!(h.percentile(50.0), u64::MAX / 2);
        let r = h.render();
        assert!(r.contains("mean>="), "render must flag the saturated mean: {r}");
        assert!(r.contains("(sum saturated)"), "render must flag saturation: {r}");
        // Non-saturated histograms render p50/p99 and a plain mean.
        let mut h = LatencyHistogram::new();
        h.observe(Cycles::new(100));
        let r = h.render();
        assert!(r.contains("p50=") && r.contains("p99=") && r.contains("mean="), "{r}");
    }

    #[test]
    fn registry_counters_and_fold() {
        let mut m = MetricsRegistry::new();
        m.inc("x");
        m.add("x", 2);
        assert_eq!(m.counter("x"), 3);
        assert_eq!(m.counter("missing"), 0);
        m.observe(HIST_MSG_ROUND_TRIP, Cycles::new(9480));
        assert_eq!(m.histogram(HIST_MSG_ROUND_TRIP).unwrap().count(), 1);
        let stats = DomainStats { tlb_hits: 7, instructions: 11, ..DomainStats::default() };
        m.fold_domain_stats("x86", &stats);
        assert_eq!(m.counter("x86.tlb_hits"), 7);
        assert_eq!(m.counter("x86.instructions"), 11);
        assert!(m.render().contains("counter x = 3"));
        assert!(m.render().contains("histogram msg_round_trip_cycles:"));
    }

    #[test]
    fn reconstruction_matches_hand_stats() {
        let events = vec![
            ev_access(DomainId::X86, TraceLevel::L1),
            ev_access(DomainId::X86, TraceLevel::L2),
            ev_access(DomainId::X86, TraceLevel::Memory),
            TraceEvent::CacheAccess {
                domain: DomainId::X86,
                addr: 0,
                write: false,
                ifetch: true,
                level: TraceLevel::L1,
                class: None,
                snooped: false,
                cost: Cycles::new(4),
            },
            TraceEvent::TlbLookup { domain: DomainId::X86, hit: true },
            TraceEvent::TlbLookup { domain: DomainId::X86, hit: false },
            TraceEvent::Ipi { from: DomainId::X86, cost: Cycles::new(4200) },
            TraceEvent::Retire { domain: DomainId::X86, insns: 100 },
            TraceEvent::Charge { domain: DomainId::X86, cost: Cycles::new(360) },
        ];
        let [x86, arm] = reconstruct_domain_stats(&events);
        assert_eq!(x86.l1d.accesses, 3);
        assert_eq!(x86.l1d.hits, 1);
        assert_eq!(x86.l1i.accesses, 1);
        assert_eq!(x86.l1i.hits, 1);
        assert_eq!(x86.l2.accesses, 2);
        assert_eq!(x86.l2.hits, 1);
        assert_eq!(x86.l3.accesses, 1);
        assert_eq!(x86.l3.hits, 0);
        assert_eq!(x86.mem_accesses, 3);
        assert_eq!(x86.local_mem_hits, 1);
        assert_eq!(x86.tlb_hits, 1);
        assert_eq!(x86.tlb_misses, 1);
        assert_eq!(x86.ipi, 1);
        assert_eq!(x86.instructions, 100);
        assert_eq!(x86.runtime.raw(), 460);
        assert_eq!(arm, DomainStats::default());
    }

    #[test]
    fn phase_breakdown_splits_at_migrations() {
        let events = vec![
            TraceEvent::Retire { domain: DomainId::X86, insns: 10 },
            TraceEvent::Migration { from: DomainId::X86, to: DomainId::ARM },
            TraceEvent::Retire { domain: DomainId::ARM, insns: 20 },
            TraceEvent::Charge { domain: DomainId::ARM, cost: Cycles::new(5) },
        ];
        let phases = phase_breakdown(&events);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].inst_cycles, [10, 0]);
        assert_eq!(phases[1].inst_cycles, [0, 20]);
        assert_eq!(phases[1].mem_cycles, [0, 5]);
        let report = render_phase_report(&events);
        assert!(report.contains("phases: 2"));
        assert!(report.contains("inst_cycles"));
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let events = vec![
            TraceEvent::Retire { domain: DomainId::X86, insns: 10 },
            ev_access(DomainId::X86, TraceLevel::L1),
            TraceEvent::Charge { domain: DomainId::X86, cost: Cycles::new(360) },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
        // The access instant lands after the 10-cycle retire slice.
        assert!(json.contains("\"name\":\"cache_access\",\"cat\":\"Cache\",\"ph\":\"i\""));
        assert!(json.contains("\"ts\":10"));
        // The charge slice starts at ts 10 with dur 360.
        assert!(json.contains("\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":10,\"dur\":360"));
        assert_eq!(json.matches("\"name\"").count(), 3);
    }

    #[test]
    fn shared_tracer_round_trips() {
        let t = shared_tracer(16);
        t.borrow_mut().record(TraceEvent::MsgBackpressure { from: DomainId::ARM });
        assert_eq!(t.borrow().len(), 1);
        assert_eq!(t.borrow().events()[0].class(), EventClass::Msg);
        t.borrow_mut().metrics_mut().observe(HIST_FUTEX_WAIT, Cycles::new(30));
        assert_eq!(t.borrow().metrics().histogram(HIST_FUTEX_WAIT).unwrap().count(), 1);
    }
}
