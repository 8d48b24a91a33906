use crate::inputs::{generate, Job, Workload};
use crate::report::{result_line, with_units, END_TO_END, PER_LAYER};
use crate::{check_env, parse_args, Args, UsageError};
use stramash_workloads::{generate_schedule, schedule_fingerprint};

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, unit) in &all {
        assert!(is_metric_name(name), "bad metric name {name:?}");
        assert!(is_unit(unit), "bad unit {unit:?} for {name}");
    }
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
}

#[test]
fn result_line_prints_every_metric_with_its_unit() {
    for table in [&END_TO_END[..], &PER_LAYER[..]] {
        let values = table
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, i as f64 + 0.25))
            .collect();
        let line = result_line(true, 3, 0, &with_units(values, table));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let want = format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                i as f64 + 0.25
            );
            assert!(line.contains(&want), "{want} missing from {line}");
        }
    }
}

#[test]
fn benchmark_manifest_names_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    for w in Workload::ALL {
        assert!(
            manifest.contains(&format!("\"name\": \"{}\"", w.name())),
            "workload {}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            manifest.contains(&entry),
            "{entry} missing from BENCHMARK.json"
        );
    }
    let listed = manifest.matches("\"unit\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics"
    );
}

/// Fingerprints of every schedule a workload's inputs generate.
fn schedules(jobs: &[Job]) -> Vec<u64> {
    jobs.iter()
        .filter_map(|j| match j {
            Job::Serve { cfg, .. } => Some(schedule_fingerprint(&generate_schedule(cfg))),
            _ => None,
        })
        .collect()
}

#[test]
fn inputs_repeat_for_one_seed_and_differ_for_another() {
    for w in Workload::ALL {
        let a = generate(w, 7);
        let b = generate(w, 7);
        let c = generate(w, 8);
        assert_eq!(a, b, "{}: same seed, same inputs", w.name());
        assert_ne!(a, c, "{}: another seed, other inputs", w.name());
        let (sa, sb, sc) = (schedules(&a.jobs), schedules(&b.jobs), schedules(&c.jobs));
        assert_eq!(sa, sb);
        if w == Workload::KvServe {
            assert!(
                sa.iter().zip(&sc).all(|(x, y)| x != y),
                "serving schedules follow the seed"
            );
        }
        let (pa, pc) = (schedules(&a.serve_probe), schedules(&c.serve_probe));
        assert_eq!(pa, schedules(&b.serve_probe));
        assert!(
            pa.iter().zip(&pc).all(|(x, y)| x != y),
            "probe schedules follow the seed"
        );
    }
}

#[test]
fn every_job_of_a_rotation_is_distinct() {
    for w in Workload::ALL {
        let jobs = generate(w, 1).jobs;
        let mut labels: Vec<String> = jobs.iter().map(ToString::to_string).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), jobs.len(), "{}", w.name());
    }
}

#[test]
fn host_path_knobs_are_refused() {
    for var in [
        "STRAMASH_EPOCH_PARALLEL",
        "STRAMASH_EPOCH_WIDE",
        "STRAMASH_SWEEP_WORKERS",
        "STRAMASH_LARGE",
    ] {
        assert_eq!(
            check_env(["PATH", var]),
            Err(UsageError::HostKnobSet(var.to_string()))
        );
    }
    assert_eq!(check_env(["PATH", "HOME", "STRAMASH_OTHER"]), Ok(()));
}

#[test]
fn parses_the_benchmark_command_line() {
    let argv: Vec<String> = [
        "--workload",
        "kv_serve",
        "--seed",
        "9",
        "--seconds",
        "10",
        "--trace",
        "1",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    assert_eq!(
        parse_args(&argv),
        Ok(Args {
            workload: Workload::KvServe,
            seed: 9,
            seconds: 10,
            trace: true
        })
    );
    let bad: Vec<String> = ["--workload", "nope", "--seconds", "1"]
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        parse_args(&bad),
        Err(UsageError::UnknownWorkload("nope".to_string()))
    );
    let zero: Vec<String> = ["--workload", "kv_serve", "--seconds", "0"]
        .iter()
        .map(ToString::to_string)
        .collect();
    assert!(matches!(
        parse_args(&zero),
        Err(UsageError::BadValue { .. })
    ));
}
