//! The benchmark's inputs: which jobs a workload runs, in which order,
//! and the serving configurations, all generated from the seed.
//!
//! The NPB kernels take their data from fixed per-class generators in
//! the library, so for them the seed decides only the order the jobs
//! run in. Serving inputs (arrivals, keys, read/write mix) come from
//! [`ServeConfig::seed`], which is the benchmark's seed itself.

use std::fmt;
use stramash_workloads::{Class, NpbKind, ServeConfig, SystemKind};

/// The seed whose simulated outputs are pinned in [`crate::golden`].
pub const DEFAULT_SEED: u64 = 1;

/// Requests per serving job (one design at one offered load).
pub const SERVE_REQUESTS: u64 = 100_000;

/// The two offered loads (requests per million cycles): below and past
/// Popcorn-TCP saturation.
pub const SERVE_LOADS: [f64; 2] = [10.0, 40.0];

/// Checkpoint round trips per design in one `ckpt_roundtrip` job.
pub const CKPT_ROUND_TRIPS: u32 = 3;

/// Checkpoint round trips per design in the probe other workloads run.
pub const PROBE_CKPT_ROUND_TRIPS: u32 = 1;

/// Requests per design in the serving probe that other workloads run.
pub const PROBE_SERVE_REQUESTS: u64 = 25_000;

/// Offered load of the serving probe.
pub const PROBE_SERVE_LOAD: f64 = 10.0;

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NPB CG (small) and MG (large): read-dominated plan replay.
    NpbRead,
    /// NPB IS (small): writes, misses and coherence.
    NpbWrite,
    /// Open-loop KV serving at two offered loads.
    KvServe,
    /// Checkpoint, fresh boot and restore of warmed machines.
    CkptRoundtrip,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::NpbRead,
        Workload::NpbWrite,
        Workload::KvServe,
        Workload::CkptRoundtrip,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbRead => "npb_read",
            Workload::NpbWrite => "npb_write",
            Workload::KvServe => "kv_serve",
            Workload::CkptRoundtrip => "ckpt_roundtrip",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One operation of a workload: boot a fresh machine, set it up, run
/// the timed part, check the outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    /// One NPB kernel at one class on one design.
    Npb {
        kernel: NpbKind,
        class: Class,
        design: SystemKind,
    },
    /// One serving run on one design.
    Serve {
        design: SystemKind,
        cfg: ServeConfig,
    },
    /// Warm `design` with CG at `warm`, then `round_trips` round trips
    /// of checkpoint, fresh boot and restore.
    Ckpt {
        design: SystemKind,
        warm: Class,
        round_trips: u32,
    },
}

impl Job {
    /// The design the job runs on.
    #[must_use]
    pub fn design(&self) -> SystemKind {
        match *self {
            Job::Npb { design, .. } | Job::Serve { design, .. } | Job::Ckpt { design, .. } => {
                design
            }
        }
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Job::Npb {
                kernel,
                class,
                design,
            } => write!(f, "{kernel}-{class:?}/{design}"),
            Job::Serve { design, cfg } => {
                write!(f, "serve-{}req@{}/{design}", cfg.requests, cfg.offered_load)
            }
            Job::Ckpt {
                design,
                warm,
                round_trips,
            } => {
                write!(f, "ckpt-CG-{warm:?}x{round_trips}/{design}")
            }
        }
    }
}

/// Everything one run of a workload feeds the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The timed jobs of one rotation, in the order they run.
    pub jobs: Vec<Job>,
    /// The serving probe run by workloads other than `kv_serve`.
    pub serve_probe: Vec<Job>,
    /// The checkpoint probe run by workloads other than `ckpt_roundtrip`.
    pub ckpt_probe: Vec<Job>,
}

/// The serving configuration for `requests` at `load` under `seed`:
/// the library's default shape (Zipf 0.99, 90 % GET) otherwise.
#[must_use]
pub fn serve_config(requests: u64, load: f64, seed: u64) -> ServeConfig {
    ServeConfig {
        requests,
        offered_load: load,
        seed,
        ..ServeConfig::default()
    }
}

/// Generates a workload's inputs from `seed`.
#[must_use]
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let designs = SystemKind::ALL;
    let mut jobs: Vec<Job> = match workload {
        Workload::NpbRead => [(NpbKind::Cg, Class::Small), (NpbKind::Mg, Class::Large)]
            .into_iter()
            .flat_map(|(kernel, class)| {
                designs.into_iter().map(move |design| Job::Npb {
                    kernel,
                    class,
                    design,
                })
            })
            .collect(),
        Workload::NpbWrite => designs
            .into_iter()
            .map(|design| Job::Npb {
                kernel: NpbKind::Is,
                class: Class::Small,
                design,
            })
            .collect(),
        Workload::KvServe => SERVE_LOADS
            .into_iter()
            .flat_map(|load| {
                designs.into_iter().map(move |design| Job::Serve {
                    design,
                    cfg: serve_config(SERVE_REQUESTS, load, seed),
                })
            })
            .collect(),
        Workload::CkptRoundtrip => designs
            .into_iter()
            .map(|design| Job::Ckpt {
                design,
                warm: Class::Small,
                round_trips: CKPT_ROUND_TRIPS,
            })
            .collect(),
    };
    shuffle(&mut jobs, seed);
    let serve_probe = designs
        .into_iter()
        .map(|design| Job::Serve {
            design,
            cfg: serve_config(PROBE_SERVE_REQUESTS, PROBE_SERVE_LOAD, seed),
        })
        .collect();
    let ckpt_probe = designs
        .into_iter()
        .map(|design| Job::Ckpt {
            design,
            warm: Class::Tiny,
            round_trips: PROBE_CKPT_ROUND_TRIPS,
        })
        .collect();
    Inputs {
        jobs,
        serve_probe,
        ckpt_probe,
    }
}

/// Fisher–Yates over a splitmix64 stream seeded with `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let j = (z % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
