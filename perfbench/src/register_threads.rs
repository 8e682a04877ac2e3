//! `register-threads`: the fast-crash register on the `fastreg_rt`
//! actor runtime, the only workload off simnet.

use fastreg::config::ClusterConfig;
use fastreg::harness::FastCrash;
use fastreg::threads::{RtConfig, ThreadCluster};
use fastreg_rt::Affinity;
use fastreg_workload::driver::WorkloadSpec;

use crate::checks;
use crate::round::{closed_loop, history_layers, Round};
use crate::spans::Spans;
use crate::sys::nproc;
use crate::Workload;

/// Operations per round.
pub const OPS: u64 = 20_000;

/// The workload's inputs, all derived from the seed.
pub struct RegisterThreads {
    cfg: ClusterConfig,
    seed: u64,
    workers: usize,
    spec: WorkloadSpec,
}

impl RegisterThreads {
    /// The inputs for `seed`. The driver thread plus `nproc - 1` workers
    /// fit the cores.
    pub fn new(seed: u64) -> Self {
        RegisterThreads {
            cfg: ClusterConfig::crash_stop(5, 1, 2).expect("(5,1,2) is a valid crash-stop config"),
            seed,
            workers: nproc().saturating_sub(1).max(1),
            spec: WorkloadSpec {
                n_ops: OPS,
                write_fraction: 0.2,
                think_time: 0,
                seed: seed ^ 0x5eed_0003,
            },
        }
    }
}

impl Workload for RegisterThreads {
    fn round(&mut self, traced: bool, spans: Option<&mut Spans>) -> Round {
        let mut round = Round {
            ops: OPS,
            ..Round::default()
        };
        let mut cluster = ThreadCluster::<FastCrash>::spawn(
            self.cfg,
            self.seed,
            RtConfig {
                workers: self.workers,
                affinity: Affinity::None,
            },
        );
        let Some(run) = closed_loop(&mut cluster, &self.spec, traced, spans, false, &mut round)
        else {
            return round;
        };
        (round.wall, round.cpu) = (run.wall, run.cpu);
        let report = &run.report;
        round.check(checks::all_complete(&report.history, OPS));
        round.check(checks::swmr_atomic(&report.history));
        // No crash: every op sends S requests and gets S replies.
        round.check(checks::count_eq(
            "messages_sent",
            report.messages_sent,
            OPS * 2 * u64::from(self.cfg.s),
        ));
        if report.streaming_verdict != fastreg_atomicity::verdict::Verdict::Clean {
            round.errors.push(format!(
                "driver's streaming verdict: {:?}",
                report.streaming_verdict
            ));
        }
        if traced {
            let rt = cluster.rt_stats();
            round.layer("rt.busy_us_per_op", rt.busy_us as f64 / OPS as f64);
            round.layer(
                "rt.msgs_per_drain",
                rt.drained_messages as f64 / rt.drained_batches.max(1) as f64,
            );
            history_layers(report, &mut round);
        }
        round
    }
}
