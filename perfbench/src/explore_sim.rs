//! `explore-sim`: coverage-guided schedule exploration of the default
//! grid, as `report explore --strategy coverage-guided` runs it.

use fastreg_adversary::explore::{
    default_grid, explore, CellExpectation, ExploreConfig, ExploreReport, Strategy,
};
use fastreg_adversary::Counterexample;
use fastreg_atomicity::verdict::Verdict;

use crate::checks::CheckResult;
use crate::round::{digest, Round};
use crate::spans::Spans;
use crate::sys::{now, nproc, peak_rss_mib, process_cpu};
use crate::Workload;

/// Cells explored per round.
pub const CELLS: u32 = 3_000;
/// Operation budget of each cell.
pub const CELL_OPS: u32 = 8;

/// The workload's inputs, all derived from the seed.
pub struct ExploreSim {
    config: ExploreConfig,
}

impl ExploreSim {
    /// The inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        ExploreSim {
            config: ExploreConfig {
                cells: CELLS,
                threads: nproc(),
                ops: CELL_OPS,
                base_seed: seed,
                early_exit: true,
                strategy: Strategy::coverage(),
                grid: default_grid(),
            },
        }
    }
}

/// No cell that must stay clean (a sound protocol at a feasible point)
/// reported a violation.
pub fn clean_where_required(cells: &[(CellExpectation, Verdict)]) -> CheckResult {
    match cells
        .iter()
        .position(|(e, v)| *e == CellExpectation::Clean && !v.is_clean())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "cell {i} must stay clean but reported {:?}",
            cells[i].1
        )),
    }
}

/// Replaying the counterexample gives its recorded verdict and trace
/// fingerprint.
pub fn replays_exactly(cx: &Counterexample) -> CheckResult {
    let out = cx.replay();
    if out.reproduces(cx) {
        Ok(())
    } else {
        Err(format!(
            "{} counterexample replayed to {:?}/{:#x}, recorded {:?}/{:#x}",
            cx.protocol, out.verdict, out.fingerprint, cx.verdict, cx.fingerprint
        ))
    }
}

/// Digest of a report's deterministic outputs: every cell's verdict and
/// fingerprint, every finding, and the coverage reached.
fn identity(report: &ExploreReport) -> u64 {
    let cells = report.cells.iter().flat_map(|c| {
        [
            c.outcome.fingerprint,
            c.outcome.ops_issued,
            u64::from(c.outcome.verdict.is_clean()),
        ]
    });
    let findings = report.findings.iter().flat_map(|f| {
        f.counterexample
            .render()
            .into_bytes()
            .into_iter()
            .map(u64::from)
    });
    digest(
        cells
            .chain(findings)
            .chain([report.coverage.features_seen as u64]),
    )
}

impl Workload for ExploreSim {
    fn round(&mut self, traced: bool, mut spans: Option<&mut Spans>) -> Round {
        let root = spans.as_deref_mut().map(Spans::open);
        let (cpu0, t0) = (process_cpu(), now());
        let report = explore(&self.config);
        let end = now();
        let mut round = Round {
            ops: report.cells.iter().map(|c| c.outcome.ops_issued).sum(),
            wall: end - t0,
            cpu: process_cpu() - cpu0,
            peak_rss_mib: peak_rss_mib(),
            ..Round::default()
        };
        let verdicts: Vec<(CellExpectation, Verdict)> = report
            .cells
            .iter()
            .map(|c| (c.cell.expectation(), c.outcome.verdict))
            .collect();
        round.check(clean_where_required(&verdicts));
        if let Some(f) = report.unexpected().next() {
            round.errors.push(format!(
                "finding on a must-stay-clean {} cell: {:?}",
                f.counterexample.protocol, f.counterexample.verdict
            ));
        }
        let mut replay_ms = Vec::new();
        for f in &report.findings {
            let start = now();
            round.check(replays_exactly(&f.counterexample));
            let stop = now();
            replay_ms.push((stop - start).as_secs_f64() * 1e3);
            if let Some(s) = spans.as_deref_mut() {
                s.leaf(root, "adversary.replay", 1, start, stop);
            }
        }
        if let (Some(s), Some(id)) = (spans, root) {
            s.close(id, None, "explore", 0, t0, end);
        }
        round.identity = Some(identity(&report));
        if traced {
            let mean = if replay_ms.is_empty() {
                0.0
            } else {
                replay_ms.iter().sum::<f64>() / replay_ms.len() as f64
            };
            round.layer("adversary.replay_ms", mean);
            round.layer("adversary.findings", report.findings.len() as f64);
            round.layer(
                "adversary.coverage_features",
                report.coverage.features_seen as f64,
            );
        }
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastreg_atomicity::verdict::ViolationKind;

    #[test]
    fn a_violation_on_a_clean_cell_is_rejected() {
        let bad = Verdict::Violation(ViolationKind::NewOldInversion);
        clean_where_required(&[(CellExpectation::MayViolate, bad)]).unwrap();
        clean_where_required(&[(CellExpectation::Clean, Verdict::Clean)]).unwrap();
        let e = clean_where_required(&[
            (CellExpectation::Clean, Verdict::Clean),
            (CellExpectation::Clean, bad),
        ])
        .unwrap_err();
        assert!(e.starts_with("cell 1"), "{e}");
    }

    #[test]
    fn a_finding_that_does_not_replay_is_rejected() {
        let mut w = ExploreSim::new(0);
        w.config.cells = 200;
        w.config.threads = 1;
        let report = explore(&w.config);
        let f = report
            .findings
            .first()
            .expect("the hunting cells yield a finding within 200 cells");
        replays_exactly(&f.counterexample).unwrap();
        let mut tampered = f.counterexample.clone();
        tampered.fingerprint ^= 1;
        assert!(replays_exactly(&tampered)
            .unwrap_err()
            .contains("replayed to"));
    }
}
