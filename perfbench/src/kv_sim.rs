//! `kv-sim`: the sharded store with round-robin fast-crash / ABD /
//! fast-byz backends on simnet at unit delays, under a zipf-skewed
//! closed-round KV workload.

use std::collections::BTreeMap;
use std::time::Duration;

use fastreg::config::ClusterConfig;
use fastreg::protocols::registry::ProtocolId;
use fastreg_atomicity::history::{OpKind, Operation};
use fastreg_store::{BatchedFrontend, Key, KvOp, ShardedStore, StoreBuilder, StoreChecker};
use fastreg_workload::kv::{run_kv_workload, KeyDist, KvReport, KvWorkloadSpec};
use fastreg_workload::metrics::OpBreakdown;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks;
use crate::round::{digest, latencies, Round};
use crate::spans::Spans;
use crate::stats::interpolated_quantile;
use crate::sys::{now, nproc, peak_rss_mib, process_cpu};
use crate::Workload;

/// Shards of the store.
pub const SHARDS: u32 = 8;
/// Keys in the keyspace; the load phase puts each once.
pub const KEYS: u64 = 2_000;
/// Operations per round, after the load phase.
pub const OPS: u64 = 10_000;
/// Closed-loop clients: one op each per flush.
pub const CLIENTS: u32 = 64;
/// Zipf exponent of the key skew.
pub const ZIPF: f64 = 1.2;
/// The backends, assigned to shards round-robin.
pub const BACKENDS: [ProtocolId; 3] = [ProtocolId::FastCrash, ProtocolId::Abd, ProtocolId::FastByz];

/// The workload's inputs, all derived from the seed, and the next
/// round's loaded store.
pub struct KvSim {
    cfg: ClusterConfig,
    seed: u64,
    threads: usize,
    spec: KvWorkloadSpec,
    loaded: Option<ShardedStore>,
}

impl KvSim {
    /// The inputs for `seed`, with the first store built and loaded:
    /// the load phase is the workload's set-up.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut w = KvSim {
            cfg: ClusterConfig::crash_stop(5, 1, 2).expect("(5,1,2) is a valid crash-stop config"),
            seed,
            threads: nproc(),
            spec: KvWorkloadSpec {
                n_ops: OPS,
                n_keys: KEYS,
                n_clients: CLIENTS,
                put_fraction: 0.2,
                dist: KeyDist::Zipf { exponent: ZIPF },
                seed: seed ^ 0x5eed_0002,
            },
            loaded: None,
        };
        w.loaded = Some(w.load()?);
        Ok(w)
    }

    /// Builds a store and puts every key once, which creates every key's
    /// register.
    fn load(&self) -> Result<ShardedStore, String> {
        let store = StoreBuilder::new(self.cfg)
            .shards(SHARDS)
            .seed(self.seed)
            .backends(BACKENDS.to_vec())
            .build()
            .map_err(|e| format!("store build: {e}"))?;
        let mut frontend = BatchedFrontend::new(store, self.threads, CLIENTS as usize);
        for key in 0..KEYS {
            frontend
                .submit(KvOp::put((key % u64::from(CLIENTS)) as u32, key, key + 1))
                .map_err(|e| format!("load phase: {e}"))?;
        }
        let (store, _) = frontend.finish().map_err(|e| format!("load phase: {e}"))?;
        Ok(store)
    }

    /// `run_kv_workload`'s call sequence, with a timer around each call
    /// into the store and its checker. Same inputs, same calls, so the
    /// same fingerprint as the untimed run.
    fn traced_run(
        &self,
        store: ShardedStore,
        mut spans: Option<&mut Spans>,
        round: &mut Round,
    ) -> Result<(ShardedStore, KvReport), String> {
        let spec = &self.spec;
        let root = spans.as_deref_mut().map(Spans::open);
        let (cpu0, t0) = (process_cpu(), now());
        let sent_before = store.messages_sent();
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5707_e0ad);
        let zipf =
            WeightedIndex::new((0..spec.n_keys).map(|k| 1.0 / f64::powf(k as f64 + 1.0, ZIPF)))
                .expect("non-empty keyspace, finite positive weights");
        let mut next_value = store.ops_applied();
        let mut frontend = BatchedFrontend::new(store, self.threads, spec.n_clients as usize);
        let (mut issued, mut puts, mut gets) = (0u64, 0u64, 0u64);
        let (mut in_store, mut flush_time, mut flushes) = (Duration::ZERO, Duration::ZERO, 0u64);
        let timed_call = |name: &'static str, start, spans: &mut Option<&mut Spans>| {
            let end = now();
            if let Some(s) = spans.as_deref_mut() {
                s.leaf(root, name, 1, start, end);
            }
            end - start
        };
        while issued < spec.n_ops {
            for client in 0..spec.n_clients {
                if issued >= spec.n_ops {
                    break;
                }
                let key: Key = zipf.sample(&mut rng) as Key;
                let op = if rng.gen_bool(spec.put_fraction.clamp(0.0, 1.0)) {
                    next_value += 1;
                    puts += 1;
                    KvOp::put(client, key, next_value)
                } else {
                    gets += 1;
                    KvOp::get(client, key)
                };
                let before = frontend.stats().flushes;
                let start = now();
                frontend.submit(op).map_err(|e| format!("submit: {e}"))?;
                if frontend.stats().flushes > before {
                    let took = timed_call("store.flush", start, &mut spans);
                    (flush_time, flushes) = (flush_time + took, flushes + 1);
                    in_store += took;
                } else {
                    in_store += now() - start;
                }
                issued += 1;
            }
        }
        let start = now();
        let (store, stats) = frontend.finish().map_err(|e| format!("finish: {e}"))?;
        let took = timed_call("store.finish", start, &mut spans);
        (flush_time, flushes, in_store) = (flush_time + took, flushes + 1, in_store + took);

        let start = now();
        let global = store.global_history();
        let harvest = timed_call("store.global_history", start, &mut spans);
        let start = now();
        let check = StoreChecker::check_streaming(&store, &global, self.threads);
        let check_time = timed_call("store.check_streaming", start, &mut spans);
        let start = now();
        let breakdown = OpBreakdown::of(&global.latency_history());
        let breakdown_time = now() - start;
        let start = now();
        let fingerprint = store.fingerprint();
        let fingerprint_time = timed_call("store.fingerprint", start, &mut spans);
        let end = now();
        (round.wall, round.cpu) = (end - t0, process_cpu() - cpu0);
        if let (Some(s), Some(id)) = (spans, root) {
            s.close(id, None, "run_kv_workload", 0, t0, end);
        }
        let report = KvReport {
            stats,
            check,
            breakdown,
            distinct_keys: store.distinct_keys(),
            puts,
            gets,
            messages_sent: store.messages_sent(),
            fingerprint,
        };

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let ops = OPS as f64;
        let outside = in_store + harvest + check_time + breakdown_time + fingerprint_time;
        round.layer(
            "driver.self_ns_per_op",
            (end - t0).saturating_sub(outside).as_nanos() as f64 / ops,
        );
        round.layer("store.flush_ms", ms(flush_time) / flushes as f64);
        round.layer(
            "store.ops_per_flush",
            stats.ops as f64 / stats.flushes.max(1) as f64,
        );
        round.layer(
            "store.waves_per_flush",
            stats.waves as f64 / stats.flushes.max(1) as f64,
        );
        round.layer("store.harvest_ms", ms(harvest));
        round.layer("store.check_ms", ms(check_time));
        round.layer("store.fingerprint_ms", ms(fingerprint_time));
        round.layer(
            "atomicity.stream_ns_per_op",
            check_time.as_nanos() as f64 / global.len().max(1) as f64,
        );
        let sent = (store.messages_sent() - sent_before) as f64 / ops;
        round.layer("simnet.sent_per_op", sent);
        round.layer("core.msgs_per_op", sent);
        let (reads, writes) = latencies(&global.latency_history());
        round.layer("core.read_p50_ticks", interpolated_quantile(&reads, 0.5));
        round.layer("core.read_p99_ticks", interpolated_quantile(&reads, 0.99));
        round.layer("core.write_p50_ticks", interpolated_quantile(&writes, 0.5));
        round.layer("core.write_p99_ticks", interpolated_quantile(&writes, 0.99));
        Ok((store, report))
    }

    /// The benchmark's own checks of a finished round.
    fn check(&self, store: &ShardedStore, report: &KvReport, round: &mut Round) {
        round.check(checks::count_eq("frontend ops", report.stats.ops, OPS));
        round.check(checks::count_eq(
            "puts + gets",
            report.puts + report.gets,
            OPS,
        ));
        round.check(checks::count_eq(
            "completed ops",
            report.breakdown.completed,
            KEYS + OPS,
        ));
        round.check(checks::count_eq(
            "incomplete ops",
            report.breakdown.incomplete,
            0,
        ));
        if !report.check.is_clean() {
            let bad: Vec<String> = report
                .check
                .violations()
                .take(3)
                .map(|v| format!("key {} ({}): {:?}", v.key, v.protocol, v.verdict))
                .collect();
            round
                .errors
                .push(format!("store checker violations: {}", bad.join("; ")));
        }
        // Per key: atomicity, and one round trip for every op but an ABD
        // get, which takes two.
        let global = store.global_history();
        let mut per_key: BTreeMap<Key, Vec<Operation>> = BTreeMap::new();
        for r in global.records() {
            per_key.entry(r.key).or_default().push(r.op.clone());
        }
        let router = store.router();
        for (key, ops) in &per_key {
            let protocol = store.shards()[router.shard_of(*key) as usize].protocol();
            let label = format!("key {key} ({protocol})");
            round.check(checks::swmr_atomic_ops(ops).map_err(|e| format!("{label}: {e}")));
            let get_max = if protocol == ProtocolId::Abd { 4 } else { 2 };
            round.check(checks::latency_within_ops(
                ops.iter().filter(|o| o.kind == OpKind::Read),
                &format!("{label} get"),
                2,
                get_max,
            ));
            round.check(checks::latency_within_ops(
                ops.iter().filter(|o| o.kind != OpKind::Read),
                &format!("{label} put"),
                2,
                2,
            ));
        }
    }
}

impl Workload for KvSim {
    fn round(&mut self, traced: bool, spans: Option<&mut Spans>) -> Round {
        let mut round = Round {
            ops: OPS,
            ..Round::default()
        };
        let store = match self.loaded.take().map_or_else(|| self.load(), Ok) {
            Ok(s) => s,
            Err(e) => {
                round.errors.push(e);
                return round;
            }
        };
        let result = if traced {
            self.traced_run(store, spans, &mut round)
        } else {
            let (cpu0, t0) = (process_cpu(), now());
            let result = run_kv_workload(store, &self.spec, self.threads);
            (round.wall, round.cpu) = (now() - t0, process_cpu() - cpu0);
            result.map_err(|e| format!("{e}"))
        };
        round.peak_rss_mib = peak_rss_mib();
        match result {
            Ok((store, report)) => {
                self.check(&store, &report, &mut round);
                round.identity = Some(digest([
                    report.fingerprint,
                    report.messages_sent,
                    report.puts,
                    report.stats.flushes,
                    report.stats.waves,
                ]));
            }
            Err(e) => {
                round.failed = round.ops;
                round.errors.push(e);
            }
        }
        // The next round's store is built and loaded outside the timed
        // part.
        match self.load() {
            Ok(s) => self.loaded = Some(s),
            Err(e) => round.errors.push(e),
        }
        round
    }
}
