//! What one round of a workload yields, and the pieces the register
//! workloads share.

use std::time::Duration;

use fastreg::harness::RegisterOps;
use fastreg_atomicity::history::{History, OpKind};
use fastreg_atomicity::streaming::{replay_events, StreamingChecker};
use fastreg_atomicity::verdict::Verdict;
use fastreg_workload::driver::{run_closed_loop, WorkloadReport, WorkloadSpec};

use crate::probe::Probe;
use crate::spans::Spans;
use crate::stats::interpolated_quantile;
use crate::sys::{now, peak_rss_mib, process_cpu};

/// One round of a workload: the same operations every round.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations the round attempted.
    pub ops: u64,
    /// Operations that failed: all of the round's when the program
    /// returned an error instead of finishing it.
    pub failed: u64,
    /// Wall time of the measured part (the calls into the program).
    pub wall: Duration,
    /// Process CPU time over the same part, all threads.
    pub cpu: Duration,
    /// Digest of the round's deterministic outputs; every round of a run
    /// must agree on it, traced or not. `None` where outputs depend on
    /// the OS scheduler.
    pub identity: Option<u64>,
    /// Peak resident set right after the measured part, before the
    /// benchmark's checks of the round allocate.
    pub peak_rss_mib: f64,
    /// Per-layer metrics, in traced rounds only.
    pub layers: Vec<(&'static str, f64)>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Round {
    /// Records a failed check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// FNV-1a over 64-bit words: the digest behind [`Round::identity`].
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A closed-loop run through the public driver, timed; traced runs go
/// through the [`Probe`] and add the driver/invocation split.
pub struct LoopRun {
    /// The driver's report.
    pub report: WorkloadReport,
    /// Wall time of `run_closed_loop`.
    pub wall: Duration,
    /// Process CPU time of `run_closed_loop`.
    pub cpu: Duration,
}

/// Runs `run_closed_loop` on `cluster`. With `traced`, the calls go
/// through a [`Probe`] whose split lands in `round`'s per-layer metrics
/// (`driver.*`, `core.invoke_ns`, and, on simnet, `simnet.step_ns`).
pub fn closed_loop(
    cluster: &mut dyn RegisterOps,
    spec: &WorkloadSpec,
    traced: bool,
    spans: Option<&mut Spans>,
    on_simnet: bool,
    round: &mut Round,
) -> Option<LoopRun> {
    let (cpu0, t0) = (process_cpu(), now());
    let result = if traced {
        let mut spans = spans;
        let root = spans.as_deref_mut().map(Spans::open);
        let mut probe = Probe::new(cluster, spans.as_deref_mut().zip(root));
        let result = run_closed_loop(&mut probe, spec);
        let (end, cpu) = (now(), process_cpu());
        let (wall, inside) = (end - t0, probe.total());
        let (invoke, step) = (probe.invoke(), probe.step());
        if let (Some(s), Some(id)) = (spans, root) {
            s.close(id, None, "run_closed_loop", 0, t0, end);
        }
        let ops = spec.n_ops as f64;
        round.layer(
            "driver.self_ns_per_op",
            wall.saturating_sub(inside).as_nanos() as f64 / ops,
        );
        round.layer("driver.polls_per_op", step.calls as f64 / ops);
        round.layer("core.invoke_ns", invoke.mean_ns());
        round.layer(
            "simnet.step_ns",
            if on_simnet { step.mean_ns() } else { 0.0 },
        );
        result.map(|report| (report, wall, cpu - cpu0))
    } else {
        let result = run_closed_loop(cluster, spec);
        let (wall, cpu) = (now() - t0, process_cpu() - cpu0);
        result.map(|report| (report, wall, cpu))
    };
    round.peak_rss_mib = peak_rss_mib();
    match result {
        Ok((report, wall, cpu)) => Some(LoopRun { report, wall, cpu }),
        Err(e) => {
            round.failed = round.ops;
            round.errors.push(format!("closed loop failed: {e}"));
            None
        }
    }
}

/// Per-layer metrics every register workload reports from its finished
/// history: the streaming checker's cost and frontier, and the
/// protocol's latency quantiles in the history's ticks.
pub fn history_layers(report: &WorkloadReport, round: &mut Round) {
    let history = &report.history;
    let t0 = now();
    let mut checker = StreamingChecker::new_atomic();
    checker.on_events(&replay_events(history));
    let verdict = checker.verdict();
    let took = now() - t0;
    if verdict != Verdict::Clean {
        round
            .errors
            .push(format!("replayed streaming check: {verdict:?}"));
    }
    round.layer(
        "atomicity.stream_ns_per_op",
        took.as_nanos() as f64 / history.len().max(1) as f64,
    );
    round.layer(
        "atomicity.high_water",
        report.checker_high_water_mark as f64,
    );
    let (reads, writes) = latencies(history);
    for (name, samples, q) in [
        ("core.read_p50_ticks", &reads, 0.5),
        ("core.read_p99_ticks", &reads, 0.99),
        ("core.write_p50_ticks", &writes, 0.5),
        ("core.write_p99_ticks", &writes, 0.99),
    ] {
        let v = if samples.is_empty() {
            0.0
        } else {
            interpolated_quantile(samples, q)
        };
        round.layer(name, v);
    }
    round.layer(
        "core.msgs_per_op",
        report.messages_sent as f64 / history.len().max(1) as f64,
    );
}

/// Read and write latencies of the completed operations, in ticks.
pub fn latencies(history: &History) -> (Vec<u64>, Vec<u64>) {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for op in history.complete_ops() {
        let took = op.responded_at.expect("complete") - op.invoked_at;
        match op.kind {
            OpKind::Read => reads.push(took),
            OpKind::Write { .. } => writes.push(took),
        }
    }
    (reads, writes)
}
