//! Runs one job: boot, set up, the timed part, and the output checks.

use crate::golden;
use crate::inputs::{Job, DEFAULT_SEED};
use crate::trace::{Forwarder, SpanLog};
use std::time::Instant;
use stramash_kernel::process::Pid;
use stramash_kernel::system::OsSystem;
use stramash_sim::{DomainId, DomainStats, HardwareModel};
use stramash_workloads::{
    generate_schedule, run_npb, run_serve, schedule_fingerprint, Class, NpbKind, NpbOutcome,
    SystemKind, TargetSystem,
};

/// Names of the exact simulated work counts kept per job, in
/// [`Counts`] order.
pub const COUNT_NAMES: [&str; 19] = [
    "accesses",
    "l1_hits",
    "l2_accesses",
    "l2_hits",
    "l3_accesses",
    "l3_hits",
    "dram_local",
    "dram_remote",
    "snoop_inval",
    "snoop_data",
    "tlb_hits",
    "tlb_misses",
    "msg_sent",
    "window_stalls",
    "replicated_pages",
    "remote_vma_walks",
    "direct_remote_faults",
    "runtime_cycles",
    "instructions",
];

/// Exact simulated work counts of one machine, in [`COUNT_NAMES`] order.
pub type Counts = [u64; 19];

/// Index of a name in [`COUNT_NAMES`].
#[must_use]
pub fn count_index(name: &str) -> usize {
    COUNT_NAMES
        .iter()
        .position(|n| *n == name)
        .expect("known count name")
}

/// The simulated outputs a job is checked on.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Nothing: the job failed before producing outputs.
    None,
    /// NPB runtime, messages, replicated pages and checksum bits.
    Npb {
        runtime: u64,
        messages: u64,
        replicated_pages: u64,
        checksum_bits: u64,
    },
    /// Serving schedule and run fingerprints.
    Serve {
        schedule_fingerprint: u64,
        fingerprint: u64,
    },
    /// Warm-up outputs plus the artifact's length and FNV-1a digest.
    Ckpt {
        warm: Box<Output>,
        artifact_len: u64,
        artifact_digest: u64,
    },
}

/// Everything one job measured.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub job: Job,
    /// Whether the job ran under the span log.
    pub traced: bool,
    /// Host seconds before the timed part: boot, spawn, schedule
    /// generation, warm-up.
    pub setup_s: f64,
    /// Host seconds of the timed part.
    pub timed_s: f64,
    /// Counts of the machine the timed part left (for `Ckpt`, the last
    /// restored machine).
    pub counts: Counts,
    /// Simulated L1I+L1D accesses the timed part reached: executed
    /// ones, or for `Ckpt` the accesses each restore brought back.
    pub sim_accesses: u64,
    /// Simulated requests the timed part completed.
    pub requests: u64,
    /// Checkpoint bytes encoded plus decoded in the timed part.
    pub ckpt_bytes: u64,
    pub output: Output,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

impl JobResult {
    fn new(job: Job, traced: bool) -> JobResult {
        JobResult {
            job,
            traced,
            setup_s: 0.0,
            timed_s: 0.0,
            counts: [0; 19],
            sim_accesses: 0,
            requests: 0,
            ckpt_bytes: 0,
            output: Output::None,
            failure: None,
        }
    }
}

/// Runs `job` on a freshly booted machine, recording spans into `log`
/// when given. Never panics on a program error: failures are returned
/// in [`JobResult::failure`].
pub fn run_job(job: Job, log: Option<&mut SpanLog>) -> JobResult {
    let mut r = JobResult::new(job, log.is_some());
    let res = match job {
        Job::Npb {
            kernel,
            class,
            design,
        } => npb_job(&mut r, kernel, class, design, log),
        Job::Serve { design, cfg } => serve_job(&mut r, design, &cfg, log),
        Job::Ckpt {
            design,
            warm,
            round_trips,
        } => ckpt_job(&mut r, design, warm, round_trips, log),
    };
    if let Err(e) = res {
        r.failure = Some(format!("{job}: {e}"));
    }
    r
}

fn boot(design: SystemKind, log: &mut Option<&mut SpanLog>) -> Result<TargetSystem, String> {
    let build = || TargetSystem::build(design, HardwareModel::Shared);
    match log {
        Some(log) => log.time("kernel.boot", build),
        None => build(),
    }
    .map_err(|e| format!("boot: {e:?}"))
}

fn npb_job(
    r: &mut JobResult,
    kernel: NpbKind,
    class: Class,
    design: SystemKind,
    mut log: Option<&mut SpanLog>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut sys = boot(design, &mut log)?;
    let pid = sys
        .spawn(DomainId::X86)
        .map_err(|e| format!("spawn: {e:?}"))?;
    r.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let outcome = match log {
        Some(log) => {
            let res = run_npb(
                kernel,
                &mut Forwarder::new(&mut sys, log),
                pid,
                class,
                design.migrates(),
            );
            log.close("workloads.npb", t1);
            res
        }
        None => run_npb(kernel, &mut sys, pid, class, design.migrates()),
    };
    r.timed_s = t1.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| format!("run_npb: {e:?}"))?;

    r.counts = counts(&sys, Some(pid), 0);
    r.sim_accesses = r.counts[0];
    r.output = npb_output(&sys, pid, &outcome);
    check_npb(kernel, class, design, &outcome, &r.output)
}

fn npb_output(sys: &TargetSystem, pid: Pid, outcome: &NpbOutcome) -> Output {
    Output::Npb {
        runtime: sys.runtime().raw(),
        messages: sys.message_total(),
        replicated_pages: sys.replicated_pages(pid),
        checksum_bits: outcome.checksum.to_bits(),
    }
}

fn check_npb(
    kernel: NpbKind,
    class: Class,
    design: SystemKind,
    outcome: &NpbOutcome,
    output: &Output,
) -> Result<(), String> {
    if !outcome.verified {
        return Err("kernel verification failed".to_string());
    }
    let pin = golden::npb(kernel, class, design).ok_or("no pinned outputs")?;
    let want = Output::Npb {
        runtime: pin.runtime,
        messages: pin.messages,
        replicated_pages: pin.replicated_pages,
        checksum_bits: pin.checksum_bits,
    };
    if *output != want {
        return Err(format!("outputs {output:?} differ from pinned {want:?}"));
    }
    Ok(())
}

fn serve_job(
    r: &mut JobResult,
    design: SystemKind,
    cfg: &stramash_workloads::ServeConfig,
    mut log: Option<&mut SpanLog>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut sys = boot(design, &mut log)?;
    let schedule_fp = match &mut log {
        Some(log) => log.time("workloads.serve.schedule", || {
            schedule_fingerprint(&generate_schedule(cfg))
        }),
        None => schedule_fingerprint(&generate_schedule(cfg)),
    };
    r.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let res = match &mut log {
        Some(log) => log.time("workloads.serve.run", || run_serve(&mut sys, cfg)),
        None => run_serve(&mut sys, cfg),
    };
    r.timed_s = t1.elapsed().as_secs_f64();
    let res = res.map_err(|e| format!("run_serve: {e:?}"))?;

    r.counts = counts(&sys, None, res.window_stalls);
    r.sim_accesses = r.counts[0];
    r.requests = res.completed;
    r.output = Output::Serve {
        schedule_fingerprint: res.schedule_fingerprint,
        fingerprint: res.fingerprint,
    };
    if res.completed != cfg.requests {
        return Err(format!(
            "completed {} of {} requests",
            res.completed, cfg.requests
        ));
    }
    if res.schedule_fingerprint != schedule_fp {
        return Err("run saw another schedule than the one generated".to_string());
    }
    if cfg.seed == DEFAULT_SEED {
        let pin =
            golden::serve(design, cfg.requests, cfg.offered_load).ok_or("no pinned outputs")?;
        if (pin.schedule_fingerprint, pin.fingerprint)
            != (res.schedule_fingerprint, res.fingerprint)
        {
            return Err(format!("fingerprints {:?} differ from pinned", r.output));
        }
    }
    Ok(())
}

fn ckpt_job(
    r: &mut JobResult,
    design: SystemKind,
    warm: Class,
    round_trips: u32,
    mut log: Option<&mut SpanLog>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut sys = boot(design, &mut log)?;
    let pid = sys
        .spawn(DomainId::X86)
        .map_err(|e| format!("spawn: {e:?}"))?;
    let outcome = run_npb(NpbKind::Cg, &mut sys, pid, warm, design.migrates())
        .map_err(|e| format!("warm-up run_npb: {e:?}"))?;
    r.setup_s = t0.elapsed().as_secs_f64();
    let warm_output = npb_output(&sys, pid, &outcome);
    check_npb(NpbKind::Cg, warm, design, &outcome, &warm_output)
        .map_err(|e| format!("warm-up: {e}"))?;

    let mut first: Option<Vec<u8>> = None;
    let mut restored = None;
    for _ in 0..round_trips {
        let t = Instant::now();
        let bytes = match &mut log {
            Some(log) => log.time("sim.checkpoint.encode", || sys.checkpoint()),
            None => sys.checkpoint(),
        };
        let mut fresh = boot(design, &mut log)?;
        let res = match &mut log {
            Some(log) => log.time("sim.checkpoint.decode", || fresh.restore(&bytes)),
            None => fresh.restore(&bytes),
        };
        r.timed_s += t.elapsed().as_secs_f64();
        res.map_err(|e| format!("restore: {e:?}"))?;
        r.ckpt_bytes += 2 * bytes.len() as u64;

        let violations = fresh.audit();
        if !violations.is_empty() {
            return Err(format!("audit after restore: {}", violations.join("; ")));
        }
        if fresh.checkpoint() != bytes {
            return Err("re-checkpointing the restored machine gave another artifact".to_string());
        }
        match &first {
            Some(f) if *f != bytes => return Err("checkpoint of one machine changed".to_string()),
            Some(_) => {}
            None => first = Some(bytes),
        }
        restored = Some(fresh);
    }
    let (fresh, bytes) = restored.zip(first).ok_or("no round trip ran")?;
    r.counts = counts(&fresh, Some(pid), 0);
    r.sim_accesses = r.counts[0] * u64::from(round_trips);
    r.output = Output::Ckpt {
        warm: Box::new(warm_output),
        artifact_len: bytes.len() as u64,
        artifact_digest: fnv1a(&bytes),
    };
    Ok(())
}

fn counts(sys: &TargetSystem, pid: Option<Pid>, window_stalls: u64) -> Counts {
    let sum = |f: fn(&DomainStats) -> u64| {
        DomainId::ALL
            .iter()
            .map(|&d| f(sys.base().mem.stats(d)))
            .sum()
    };
    let (walks, direct) = sys
        .stramash_counters()
        .map_or((0, 0), |c| (c.remote_vma_walks, c.direct_remote_faults));
    [
        sum(|s| s.l1i.accesses + s.l1d.accesses),
        sum(|s| s.l1i.hits + s.l1d.hits),
        sum(|s| s.l2.accesses),
        sum(|s| s.l2.hits),
        sum(|s| s.l3.accesses),
        sum(|s| s.l3.hits),
        sum(|s| s.local_mem_hits),
        sum(|s| s.remote_mem_hits + s.remote_shared_mem_hits),
        sum(|s| s.snoop_invalidations),
        sum(|s| s.snoop_data_hits),
        sum(|s| s.tlb_hits),
        sum(|s| s.tlb_misses),
        sys.message_total(),
        window_stalls,
        pid.map_or(0, |p| sys.replicated_pages(p)),
        walks,
        direct,
        sys.runtime().raw(),
        sum(|s| s.instructions),
    ]
}

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
