//! The measurement loop: rotations of a workload's jobs, with probe jobs
//! interleaved, for the run's time budget.

use crate::inputs::{Inputs, Job, Workload};
use crate::jobs::{run_job, JobResult, Output};
use crate::trace::SpanLog;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use stramash_kernel::msg::{Message, MsgType};
use stramash_kernel::system::OsSystem;
use stramash_sim::{DomainId, HardwareModel};
use stramash_workloads::{SystemKind, TargetSystem};

/// Why a job ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// A job of the workload itself.
    Main,
    /// The serving probe (workloads other than `kv_serve`).
    ServeProbe,
    /// The checkpoint probe (workloads other than `ckpt_roundtrip`).
    CkptProbe,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    pub workload: Workload,
    pub inputs: Inputs,
    /// Every job run, with its role; the index is the span log's job id.
    pub results: Vec<(Role, JobResult)>,
    /// Completed main rotations, untraced and traced.
    pub rotations: [u32; 2],
    /// Host nanoseconds per stream round trip (traced runs only).
    pub stream_rtt_ns: Option<f64>,
    pub log: SpanLog,
}

impl Run {
    /// Results of one role, optionally only traced or untraced ones.
    pub fn of(&self, role: Role, traced: Option<bool>) -> impl Iterator<Item = &JobResult> {
        self.results
            .iter()
            .filter(move |(r, j)| *r == role && traced.is_none_or(|t| j.traced == t))
            .map(|(_, j)| j)
    }

    /// The distinct jobs of one role, in rotation order.
    #[must_use]
    pub fn jobs_of(&self, role: Role) -> &[Job] {
        match role {
            Role::Main => &self.inputs.jobs,
            Role::ServeProbe => &self.inputs.serve_probe,
            Role::CkptProbe => &self.inputs.ckpt_probe,
        }
    }

    /// The jobs that measure serving: the workload's own on `kv_serve`,
    /// the serving probe elsewhere.
    #[must_use]
    pub fn serve_role(&self) -> Role {
        if self.workload == Workload::KvServe {
            Role::Main
        } else {
            Role::ServeProbe
        }
    }

    /// The jobs that measure checkpointing: the workload's own on
    /// `ckpt_roundtrip`, the checkpoint probe elsewhere.
    #[must_use]
    pub fn ckpt_role(&self) -> Role {
        if self.workload == Workload::CkptRoundtrip {
            Role::Main
        } else {
            Role::CkptProbe
        }
    }
}

/// Boots every design once and drops it, so the first timed boot does
/// not pay the process's one-time allocator and page-fault costs.
pub fn warm_up() {
    for design in SystemKind::ALL {
        let _ = TargetSystem::build(design, HardwareModel::Shared);
    }
}

/// Runs `workload` for `budget`, alternating untraced and traced
/// rotations when `trace` is set, then the checks that span jobs.
///
/// One probe job runs after each main job, cycling through the probes,
/// so probe samples spread over the whole run like the main ones do.
#[must_use]
pub fn run(workload: Workload, inputs: Inputs, budget: Duration, trace: bool) -> Run {
    let mut run = Run {
        workload,
        inputs,
        results: Vec::new(),
        rotations: [0, 0],
        stream_rtt_ns: None,
        log: SpanLog::default(),
    };
    let probes: Vec<(Role, Job)> = [run.serve_role(), run.ckpt_role()]
        .into_iter()
        .filter(|&role| role != Role::Main)
        .flat_map(|role| {
            run.jobs_of(role)
                .iter()
                .map(move |&job| (role, job))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut next_probe = 0;
    let start = Instant::now();
    let enough = |rot: [u32; 2]| rot[0] >= 1 && (!trace || rot[1] >= 1);
    'rotations: loop {
        let traced = trace && (run.rotations[0] + run.rotations[1]) % 2 == 1;
        for i in 0..run.inputs.jobs.len() {
            if start.elapsed() >= budget && enough(run.rotations) {
                break 'rotations;
            }
            let job = run.inputs.jobs[i];
            push(&mut run, Role::Main, job, traced);
            if let Some(&(role, probe)) = probes.get(next_probe % probes.len().max(1)) {
                push(&mut run, role, probe, traced);
                next_probe += 1;
            }
        }
        run.rotations[usize::from(traced)] += 1;
        if start.elapsed() >= budget && enough(run.rotations) {
            break;
        }
    }
    // Every probe job needs a sample in the mode the run reports.
    for (role, job) in probes {
        if !run.of(role, Some(trace)).any(|j| j.job == job) {
            push(&mut run, role, job, trace);
        }
    }
    if trace {
        run.stream_rtt_ns = Some(stream_rtt_ns());
    }
    cross_check(&mut run);
    run
}

fn push(run: &mut Run, role: Role, job: Job, traced: bool) {
    run.log.job = u32::try_from(run.results.len()).expect("job count fits u32");
    let result = run_job(job, traced.then_some(&mut run.log));
    run.results.push((role, result));
}

/// Checks that span jobs: every run of one job (traced or not, any
/// rotation) gives identical outputs and counts, and every design at
/// one serving load saw the same schedule.
fn cross_check(run: &mut Run) {
    let mut first: BTreeMap<String, (Output, crate::jobs::Counts)> = BTreeMap::new();
    let mut schedules: BTreeMap<String, u64> = BTreeMap::new();
    for (_, r) in &mut run.results {
        if r.failure.is_some() {
            continue;
        }
        let label = r.job.to_string();
        match first.get(&label) {
            Some((out, counts)) if *out != r.output || *counts != r.counts => {
                r.failure = Some(format!(
                    "{label}: {} run differs from the first run of the job",
                    if r.traced { "traced" } else { "untraced" }
                ));
                continue;
            }
            Some(_) => {}
            None => {
                first.insert(label, (r.output.clone(), r.counts));
            }
        }
        if let (
            Job::Serve { cfg, .. },
            Output::Serve {
                schedule_fingerprint,
                ..
            },
        ) = (&r.job, &r.output)
        {
            let key = format!("{}@{}", cfg.requests, cfg.offered_load);
            if *schedules
                .entry(key.clone())
                .or_insert(*schedule_fingerprint)
                != *schedule_fingerprint
            {
                r.failure = Some(format!(
                    "{}: schedule differs across designs at {key}",
                    r.job
                ));
            }
        }
    }
}

/// Host nanoseconds per multiplexed-stream round trip
/// (`stream_request`, `stream_serve_receive`, `stream_respond`,
/// `stream_consume`), averaged over the SHM and TCP transports. Each
/// transport's figure is the median over batches.
fn stream_rtt_ns() -> f64 {
    const BATCHES: usize = 9;
    const PER_BATCH: u32 = 2000;
    let mut per_transport = Vec::new();
    for design in [SystemKind::PopcornShm, SystemKind::PopcornTcp] {
        let mut sys =
            TargetSystem::build(design, HardwareModel::Shared).expect("boot for the stream probe");
        let base = sys.base_mut();
        let sid = base.msg.open_stream(DomainId::X86, 8);
        let req = Message {
            ty: MsgType::KvRequest,
            payload: 128,
        };
        let resp = Message {
            ty: MsgType::KvResponse,
            payload: 128,
        };
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                let (msg, mem, ipi) = (&mut base.msg, &mut base.mem, &mut base.ipi);
                let ok = msg.stream_request(mem, ipi, sid, req).is_ok()
                    && msg
                        .stream_serve_receive(mem, sid, DomainId::ARM, req)
                        .is_ok()
                    && msg
                        .stream_respond(mem, ipi, sid, DomainId::ARM, resp)
                        .is_ok()
                    && msg.stream_consume(mem, sid, resp).is_ok();
                assert!(ok, "a stream with one request in flight accepts every call");
            }
            batches.push(t.elapsed().as_nanos() as f64 / f64::from(PER_BATCH));
        }
        per_transport.push(crate::report::median(&mut batches));
    }
    per_transport.iter().sum::<f64>() / per_transport.len() as f64
}
