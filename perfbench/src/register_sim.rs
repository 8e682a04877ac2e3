//! `register-sim`: the Fig. 2 fast-crash SWMR register at
//! `crash_stop(5, 1, 2)` on the deterministic simnet timed scheduler,
//! with one server crashed before the first operation.

use fastreg::config::ClusterConfig;
use fastreg::harness::{ClusterBuilder, DynCluster};
use fastreg::protocols::registry::ProtocolId;
use fastreg_simnet::delay::DelayModel;
use fastreg_simnet::runner::SimConfig;
use fastreg_workload::driver::WorkloadSpec;

use crate::checks;
use crate::round::{closed_loop, digest, history_layers, Round};
use crate::spans::Spans;
use crate::Workload;

/// Operations per round: about 19 trace records per op, so the world's
/// 100k-entry trace passes its cap many times over.
pub const OPS: u64 = 30_000;
/// Message delay bounds of the uniform delay model, in ticks.
pub const DELAY_LO: u64 = 5;
/// See [`DELAY_LO`].
pub const DELAY_HI: u64 = 50;

/// The workload's inputs, all derived from the seed.
pub struct RegisterSim {
    cfg: ClusterConfig,
    seed: u64,
    crashed: u32,
    spec: WorkloadSpec,
}

impl RegisterSim {
    /// The inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let cfg = ClusterConfig::crash_stop(5, 1, 2).expect("(5,1,2) is a valid crash-stop config");
        RegisterSim {
            cfg,
            seed,
            crashed: (seed % u64::from(cfg.s)) as u32,
            spec: WorkloadSpec {
                n_ops: OPS,
                write_fraction: 0.2,
                think_time: 0,
                seed: seed ^ 0x5eed_0001,
            },
        }
    }

    fn build(&self) -> DynCluster {
        let mut cluster = ClusterBuilder::new(self.cfg)
            .sim(SimConfig::default().with_delay(DelayModel::Uniform {
                lo: DELAY_LO,
                hi: DELAY_HI,
            }))
            .seed(self.seed)
            .build(ProtocolId::FastCrash)
            .expect("fast-crash is feasible at (5,1,2)");
        cluster
            .sim_control()
            .expect("built on simnet")
            .crash_server(self.crashed);
        cluster
    }
}

impl Workload for RegisterSim {
    fn round(&mut self, traced: bool, spans: Option<&mut Spans>) -> Round {
        let mut round = Round {
            ops: OPS,
            ..Round::default()
        };
        let mut cluster = self.build();
        let Some(run) = closed_loop(&mut cluster, &self.spec, traced, spans, true, &mut round)
        else {
            return round;
        };
        (round.wall, round.cpu) = (run.wall, run.cpu);
        let report = &run.report;
        let sim = cluster.sim_control_ref().expect("built on simnet");
        let net = sim.net_stats();
        let s = u64::from(self.cfg.s);

        round.check(checks::all_complete(&report.history, OPS));
        round.check(checks::swmr_atomic(&report.history));
        round.check(checks::latency_within(
            &report.history,
            "register-sim",
            2 * DELAY_LO,
            2 * DELAY_HI,
        ));
        // Each op sends S requests and gets S - 1 replies; the request to
        // the crashed server is dropped.
        round.check(checks::count_eq("net.sent", net.sent, OPS * (2 * s - 1)));
        round.check(checks::count_eq("net.dropped", net.dropped, OPS));
        round.check(checks::count_eq(
            "net.delivered + net.dropped",
            net.delivered + net.dropped,
            net.sent,
        ));
        round.check(checks::count_eq(
            "messages_sent",
            report.messages_sent,
            net.sent,
        ));
        if report.streaming_verdict != fastreg_atomicity::verdict::Verdict::Clean {
            round.errors.push(format!(
                "driver's streaming verdict: {:?}",
                report.streaming_verdict
            ));
        }
        round.identity = Some(digest([
            sim.trace_fingerprint(),
            net.sent,
            net.delivered,
            net.dropped,
            report.duration_ticks,
        ]));

        if traced {
            let ops = OPS as f64;
            let sched = sim.sched_counters();
            round.layer("simnet.sent_per_op", net.sent as f64 / ops);
            round.layer("simnet.delivered_per_op", net.delivered as f64 / ops);
            round.layer("simnet.dropped_per_op", net.dropped as f64 / ops);
            round.layer(
                "simnet.pops_per_msg",
                sched.popped as f64 / (net.delivered + net.dropped) as f64,
            );
            round.layer("simnet.heap_high_water", sched.heap_high_water as f64);
            round.layer(
                "simnet.trace_records_per_op",
                trace_records(&net, 1) as f64 / ops,
            );
            round.layer("simnet.trace_retained", sim.trace_entries().len() as f64);
            history_layers(report, &mut round);
        }
        round
    }
}

/// Trace records a world made, kept or suppressed: one per send,
/// delivery, drop, invocation and crash (`steps` counts deliveries and
/// invocations).
pub fn trace_records(net: &fastreg_simnet::stats::NetStats, crashes: u64) -> u64 {
    net.sent + net.dropped + net.steps + crashes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_record_count_matches_a_world_below_its_cap() {
        let w = RegisterSim::new(3);
        let mut cluster = w.build();
        let spec = WorkloadSpec {
            n_ops: 200,
            ..w.spec.clone()
        };
        fastreg_workload::driver::run_closed_loop(&mut cluster, &spec).unwrap();
        let sim = cluster.sim_control_ref().unwrap();
        let retained = sim.trace_entries().len() as u64;
        assert!(retained < 100_000);
        assert_eq!(trace_records(&sim.net_stats(), 1), retained);
    }

    #[test]
    fn a_round_passes_every_check_and_repeats_exactly() {
        let mut w = RegisterSim::new(1);
        let a = w.round(false, None);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        let b = w.round(true, None);
        assert!(b.errors.is_empty(), "{:?}", b.errors);
        assert_eq!(a.identity, b.identity, "the probe changed the run");
        assert!(b.layers.iter().any(|(n, _)| *n == "simnet.step_ns"));
    }
}
