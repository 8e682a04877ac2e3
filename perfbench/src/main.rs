//! The fastreg benchmark: one named workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up, then repeats whole rounds of the same
//! operations until `--seconds` have passed, checks every round's
//! outputs with the benchmark's own checks, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` rounds alternate
//! untraced and traced, the metrics are the per-layer ones, and the
//! first traced round's spans are written as Chrome trace JSON under
//! `perfbench/out/`. Wall and CPU rates are scaled by the host slowdown
//! the [`reference`] kernel measures around each round. See `README.md`
//! for the workloads and metrics.

mod checks;
mod explore_sim;
mod kv_sim;
mod probe;
mod reference;
mod register_sim;
mod register_threads;
mod round;
mod spans;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use round::Round;
use spans::Spans;
use stats::median;
use sys::now;

/// A workload: rounds of the same operations on inputs made from the
/// seed.
pub trait Workload {
    /// Runs one round; a traced round also yields per-layer metrics and,
    /// given `spans`, records its calls there.
    fn round(&mut self, traced: bool, spans: Option<&mut Spans>) -> Round;
}

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 4] = ["register-sim", "kv-sim", "register-threads", "explore-sim"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run; a
/// metric of a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("driver.self_ns_per_op", "ns/op"),
    ("driver.polls_per_op", "calls/op"),
    ("core.invoke_ns", "ns"),
    ("core.read_p50_ticks", "ticks"),
    ("core.read_p99_ticks", "ticks"),
    ("core.write_p50_ticks", "ticks"),
    ("core.write_p99_ticks", "ticks"),
    ("core.msgs_per_op", "msgs/op"),
    ("simnet.step_ns", "ns"),
    ("simnet.sent_per_op", "msgs/op"),
    ("simnet.delivered_per_op", "msgs/op"),
    ("simnet.dropped_per_op", "msgs/op"),
    ("simnet.pops_per_msg", "pops/msg"),
    ("simnet.heap_high_water", "entries"),
    ("simnet.trace_records_per_op", "records/op"),
    ("simnet.trace_retained", "entries"),
    ("atomicity.stream_ns_per_op", "ns/op"),
    ("atomicity.high_water", "ops"),
    ("store.flush_ms", "ms"),
    ("store.ops_per_flush", "ops"),
    ("store.waves_per_flush", "waves"),
    ("store.harvest_ms", "ms"),
    ("store.check_ms", "ms"),
    ("store.fingerprint_ms", "ms"),
    ("rt.busy_us_per_op", "us/op"),
    ("rt.msgs_per_drain", "msgs"),
    ("adversary.replay_ms", "ms"),
    ("adversary.findings", "count"),
    ("adversary.coverage_features", "count"),
    ("bench.traced_over_untraced", "ratio"),
];

/// Untimed rounds in the set-up. A single cold round spreads by a third
/// from run to run on a shared host; three make `setup_s` steadier.
const WARMUP_ROUNDS: usize = 3;

/// Most spans the traced run keeps.
const SPAN_CAP: usize = 100_000;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything the run's rounds add up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    identity: Option<u64>,
}

impl Tally {
    fn add(&mut self, round: &Round) {
        self.attempted += round.ops;
        self.failed += round.failed;
        for e in &round.errors {
            if self.errors.len() < 20 {
                self.errors.push(e.clone());
            }
        }
        if let Some(id) = round.identity {
            match self.identity {
                None => self.identity = Some(id),
                Some(first) if first != id => self.errors.push(format!(
                    "round outputs differ from the first round's: {id:#x} vs {first:#x}"
                )),
                Some(_) => {}
            }
        }
    }
}

fn main() -> ExitCode {
    let start = now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();

    // Set-up, timed from the process's start: the inputs, the first
    // deployment (kv-sim: the first store and its load phase) and the
    // untimed warm-up rounds.
    let mut workload: Box<dyn Workload> = match args.workload {
        "register-sim" => Box::new(register_sim::RegisterSim::new(args.seed)),
        "register-threads" => Box::new(register_threads::RegisterThreads::new(args.seed)),
        "explore-sim" => Box::new(explore_sim::ExploreSim::new(args.seed)),
        _ => match kv_sim::KvSim::new(args.seed) {
            Ok(w) => Box::new(w),
            Err(e) => {
                eprintln!("perfbench: kv-sim set-up failed: {e}");
                return ExitCode::from(1);
            }
        },
    };
    // The peak resident set is read in the process's first round: later
    // rounds of identical work keep raising it as the allocator's
    // per-thread arenas fragment, so a later reading would measure the
    // run's length.
    let mut peak_rss = None;
    for _ in 0..WARMUP_ROUNDS {
        let warm = workload.round(false, None);
        tally.add(&warm);
        peak_rss.get_or_insert(warm.peak_rss_mib);
    }
    let setup = now() - start;

    // The timed phase: whole rounds until the time is up, each between
    // two runs of the reference kernel.
    let phase = now();
    let mut spans = args.trace.then(|| Spans::new(phase, SPAN_CAP));
    let (mut per_wall, mut per_cpu, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut kernel_times = vec![reference::kernel()];
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    loop {
        let plain = workload.round(false, None);
        tally.add(&plain);
        let before = *kernel_times.last().expect("measured before the loop");
        let after = reference::kernel();
        kernel_times.push(after);
        let slowdown = reference::slowdown(before, after);
        per_wall.push(plain.ops as f64 / plain.wall.as_secs_f64() * slowdown);
        per_cpu.push(plain.ops as f64 / plain.cpu.as_secs_f64() * slowdown);
        eprintln!(
            "perfbench: round {}: {} ops, {:.6} s wall, {:.6} s cpu, host slowdown {slowdown:.3}",
            per_wall.len(),
            plain.ops,
            plain.wall.as_secs_f64(),
            plain.cpu.as_secs_f64(),
        );
        if args.trace {
            let first = overhead.is_empty();
            let traced = workload.round(true, spans.as_mut().filter(|_| first));
            tally.add(&traced);
            overhead.push(traced.wall.as_secs_f64() / plain.wall.as_secs_f64());
            for (name, v) in &traced.layers {
                layers.entry(name).or_default().push(*v);
            }
            kernel_times.push(reference::kernel());
        }
        if (now() - phase).as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak_rss = peak_rss.expect("at least one warm-up round");

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layers.insert("bench.traced_over_untraced", overhead);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layers.get(name).map_or(0.0, |xs| median(xs));
                (name, v, unit)
            })
            .collect()
    } else {
        let kernel: Vec<f64> = kernel_times.iter().map(|d| d.as_secs_f64()).collect();
        let setup_slowdown = median(&kernel) / reference::REFERENCE_NOMINAL.as_secs_f64();
        let values = [
            median(&per_wall),
            median(&per_cpu),
            peak_rss,
            setup.as_secs_f64() / setup_slowdown,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    if let Some(s) = &spans {
        write_spans(s, args.workload, args.seed);
    }
    for e in &tally.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = tally.errors.is_empty();
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The result line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        assert!(value.is_finite(), "metric {name} is {value}");
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(spans: &Spans, workload: &str, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_json(workload)));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_json(true, 10, 0, &[("a", 1.5, "s"), ("b", 2.0, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// workloads and metrics, with these units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "metric {name} ({unit})"
            );
        }
        let names = text.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
