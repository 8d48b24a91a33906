//! Simulated outputs recorded from the library at the time the
//! benchmark was defined. A job whose outputs differ fails. NPB outputs
//! do not depend on the benchmark seed; serving outputs are pinned at
//! [`crate::inputs::DEFAULT_SEED`] only, and other seeds fall back to
//! the cross-design and traced-versus-untraced checks.

use stramash_workloads::{Class, NpbKind, SystemKind};

/// Pinned outputs of one NPB job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpbPin {
    pub kernel: NpbKind,
    pub class: Class,
    pub design: SystemKind,
    pub runtime: u64,
    pub messages: u64,
    pub replicated_pages: u64,
    pub checksum_bits: u64,
}

/// Pinned outputs of one serving job at the default seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServePin {
    pub design: SystemKind,
    pub requests: u64,
    pub load: f64,
    pub schedule_fingerprint: u64,
    pub fingerprint: u64,
}

/// The pinned outputs for an NPB job, if recorded.
#[must_use]
pub fn npb(kernel: NpbKind, class: Class, design: SystemKind) -> Option<&'static NpbPin> {
    NPB.iter()
        .find(|p| p.kernel == kernel && p.class == class && p.design == design)
}

/// The pinned outputs for a serving job at the default seed, if recorded.
#[must_use]
pub fn serve(design: SystemKind, requests: u64, load: f64) -> Option<&'static ServePin> {
    SERVE
        .iter()
        .find(|p| p.design == design && p.requests == requests && p.load == load)
}

#[rustfmt::skip]
const NPB: &[NpbPin] = &[
    NpbPin { kernel: NpbKind::Cg, class: Class::Tiny, design: SystemKind::Vanilla, runtime: 363616, messages: 0, replicated_pages: 0, checksum_bits: 4522704638091469045 },
    NpbPin { kernel: NpbKind::Cg, class: Class::Tiny, design: SystemKind::PopcornTcp, runtime: 4943008, messages: 54, replicated_pages: 9, checksum_bits: 4522704638091469045 },
    NpbPin { kernel: NpbKind::Cg, class: Class::Tiny, design: SystemKind::PopcornShm, runtime: 2056461, messages: 54, replicated_pages: 9, checksum_bits: 4522704638091469045 },
    NpbPin { kernel: NpbKind::Cg, class: Class::Tiny, design: SystemKind::Stramash, runtime: 975156, messages: 16, replicated_pages: 0, checksum_bits: 4522704638091469045 },
    NpbPin { kernel: NpbKind::Cg, class: Class::Small, design: SystemKind::Vanilla, runtime: 275264994, messages: 0, replicated_pages: 0, checksum_bits: 4517551573989951616 },
    NpbPin { kernel: NpbKind::Cg, class: Class::Small, design: SystemKind::PopcornTcp, runtime: 554423758, messages: 3112, replicated_pages: 1393, checksum_bits: 4517551573989951616 },
    NpbPin { kernel: NpbKind::Cg, class: Class::Small, design: SystemKind::PopcornShm, runtime: 449806933, messages: 3112, replicated_pages: 1393, checksum_bits: 4517551573989951616 },
    NpbPin { kernel: NpbKind::Cg, class: Class::Small, design: SystemKind::Stramash, runtime: 453952192, messages: 24, replicated_pages: 0, checksum_bits: 4517551573989951616 },
    NpbPin { kernel: NpbKind::Mg, class: Class::Large, design: SystemKind::Vanilla, runtime: 489538332, messages: 0, replicated_pages: 0, checksum_bits: 4588439852445301060 },
    NpbPin { kernel: NpbKind::Mg, class: Class::Large, design: SystemKind::PopcornTcp, runtime: 1060042842, messages: 6526, replicated_pages: 2749, checksum_bits: 4588439852445301060 },
    NpbPin { kernel: NpbKind::Mg, class: Class::Large, design: SystemKind::PopcornShm, runtime: 865628178, messages: 6526, replicated_pages: 2749, checksum_bits: 4588439852445301060 },
    NpbPin { kernel: NpbKind::Mg, class: Class::Large, design: SystemKind::Stramash, runtime: 655775715, messages: 8, replicated_pages: 0, checksum_bits: 4588439852445301060 },
    NpbPin { kernel: NpbKind::Is, class: Class::Small, design: SystemKind::Vanilla, runtime: 330815390, messages: 0, replicated_pages: 0, checksum_bits: 4737765973526839296 },
    NpbPin { kernel: NpbKind::Is, class: Class::Small, design: SystemKind::PopcornTcp, runtime: 890084225, messages: 6234, replicated_pages: 3092, checksum_bits: 4737765973526839296 },
    NpbPin { kernel: NpbKind::Is, class: Class::Small, design: SystemKind::PopcornShm, runtime: 747134063, messages: 6234, replicated_pages: 3092, checksum_bits: 4737765973526839296 },
    NpbPin { kernel: NpbKind::Is, class: Class::Small, design: SystemKind::Stramash, runtime: 509058950, messages: 18, replicated_pages: 3, checksum_bits: 4737765973526839296 },
];

#[rustfmt::skip]
const SERVE: &[ServePin] = &[
    ServePin { design: SystemKind::Vanilla, requests: 25000, load: 10.0, schedule_fingerprint: 4594858629640685687, fingerprint: 148661626477509364 },
    ServePin { design: SystemKind::PopcornTcp, requests: 25000, load: 10.0, schedule_fingerprint: 4594858629640685687, fingerprint: 7546956502876500480 },
    ServePin { design: SystemKind::PopcornShm, requests: 25000, load: 10.0, schedule_fingerprint: 4594858629640685687, fingerprint: 16203242795070081047 },
    ServePin { design: SystemKind::Stramash, requests: 25000, load: 10.0, schedule_fingerprint: 4594858629640685687, fingerprint: 7552520616479848749 },
    ServePin { design: SystemKind::Vanilla, requests: 100000, load: 10.0, schedule_fingerprint: 3517029709028255362, fingerprint: 9067075416358300749 },
    ServePin { design: SystemKind::PopcornTcp, requests: 100000, load: 10.0, schedule_fingerprint: 3517029709028255362, fingerprint: 15923565836852388762 },
    ServePin { design: SystemKind::PopcornShm, requests: 100000, load: 10.0, schedule_fingerprint: 3517029709028255362, fingerprint: 14280687772285495624 },
    ServePin { design: SystemKind::Stramash, requests: 100000, load: 10.0, schedule_fingerprint: 3517029709028255362, fingerprint: 11164881541099064808 },
    ServePin { design: SystemKind::Vanilla, requests: 100000, load: 40.0, schedule_fingerprint: 8739597202358866159, fingerprint: 12141233844631172203 },
    ServePin { design: SystemKind::PopcornTcp, requests: 100000, load: 40.0, schedule_fingerprint: 8739597202358866159, fingerprint: 13048838712662565385 },
    ServePin { design: SystemKind::PopcornShm, requests: 100000, load: 40.0, schedule_fingerprint: 8739597202358866159, fingerprint: 9956637327455350684 },
    ServePin { design: SystemKind::Stramash, requests: 100000, load: 40.0, schedule_fingerprint: 8739597202358866159, fingerprint: 4511422939715445065 },
];
