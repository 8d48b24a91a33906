//! The traced run's instrumentation: host-time spans recorded from
//! outside the program, around calls into each layer's public
//! functions. Spans stay in memory and are aggregated when the run ends.

use std::time::Instant;
use stramash_kernel::addr::VirtAddr;
use stramash_kernel::process::Pid;
use stramash_kernel::system::{BaseSystem, OsError, OsSystem};
use stramash_kernel::vma::VmaProt;
use stramash_sim::{Cycles, DomainId, EpochHorizon};
use stramash_workloads::{SystemKind, TargetSystem};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and operation, as the metric prefix (`core.fault`, ...).
    pub name: &'static str,
    /// Job that caused it (index into the run's job list).
    pub job: u32,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// In-memory span store for one run.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    /// The job new spans are attributed to.
    pub job: u32,
}

impl SpanLog {
    /// Records a span named `name` from `start` to now.
    pub fn close(&mut self, name: &'static str, start: Instant) {
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            job: self.job,
            dur_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.close(name, start);
        r
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// An [`OsSystem`] that forwards to a [`TargetSystem`] and times every
/// design call `run_npb` makes through it.
///
/// It overrides exactly what `TargetSystem` overrides (the required
/// methods plus `epoch_horizon`), so every provided method — translate,
/// translation sessions, loads and stores — runs its default body against this
/// forwarder and reaches the design only through the timed calls. It
/// also overrides `mmap` to time it; the forwarded call runs the same
/// provided body on the `TargetSystem`. `base`, `base_mut`, `name` and
/// `epoch_horizon` are accessors and are not timed: the time spent with
/// the borrowed state belongs to the caller's layer.
pub struct Forwarder<'a> {
    sys: &'a mut TargetSystem,
    log: &'a mut SpanLog,
    fault: &'static str,
    migrate: &'static str,
}

impl<'a> Forwarder<'a> {
    /// Wraps `sys`, recording into `log`. The design's fault and
    /// migration paths count to the layer that implements them.
    pub fn new(sys: &'a mut TargetSystem, log: &'a mut SpanLog) -> Forwarder<'a> {
        let (fault, migrate) = match sys.kind() {
            SystemKind::Stramash => ("core.fault", "core.migrate"),
            SystemKind::PopcornShm | SystemKind::PopcornTcp => ("popcorn.fault", "popcorn.migrate"),
            SystemKind::Vanilla => ("kernel.fault", "kernel.migrate"),
        };
        Forwarder {
            sys,
            log,
            fault,
            migrate,
        }
    }
}

impl OsSystem for Forwarder<'_> {
    fn base(&self) -> &BaseSystem {
        self.sys.base()
    }

    fn base_mut(&mut self) -> &mut BaseSystem {
        self.sys.base_mut()
    }

    fn name(&self) -> &'static str {
        self.sys.name()
    }

    fn epoch_horizon(&self) -> EpochHorizon {
        self.sys.epoch_horizon()
    }

    fn handle_fault(&mut self, pid: Pid, va: VirtAddr, write: bool) -> Result<Cycles, OsError> {
        let sys = &mut *self.sys;
        self.log
            .time(self.fault, || sys.handle_fault(pid, va, write))
    }

    fn migrate(&mut self, pid: Pid, to: DomainId) -> Result<Cycles, OsError> {
        let sys = &mut *self.sys;
        self.log.time(self.migrate, || sys.migrate(pid, to))
    }

    fn futex_lock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        let sys = &mut *self.sys;
        self.log
            .time("kernel.futex", || sys.futex_lock(pid, domain, uaddr))
    }

    fn futex_unlock(
        &mut self,
        pid: Pid,
        domain: DomainId,
        uaddr: VirtAddr,
    ) -> Result<Cycles, OsError> {
        let sys = &mut *self.sys;
        self.log
            .time("kernel.futex", || sys.futex_unlock(pid, domain, uaddr))
    }

    fn munmap(&mut self, pid: Pid, start: VirtAddr) -> Result<[u64; 2], OsError> {
        let sys = &mut *self.sys;
        self.log.time("kernel.munmap", || sys.munmap(pid, start))
    }

    fn mmap(&mut self, pid: Pid, len: u64, prot: VmaProt) -> Result<VirtAddr, OsError> {
        let sys = &mut *self.sys;
        self.log.time("kernel.mmap", || sys.mmap(pid, len, prot))
    }
}
