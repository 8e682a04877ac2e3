//! A forwarding [`RegisterOps`] wrapper that times every call the
//! workload driver makes into the deployment.
//!
//! The wrapper forwards every method, the provided ones included, so the
//! driver takes the same path through the deployment as without it
//! (journaling, history reservation). The traced run shows this by
//! reproducing the untraced run's fingerprints.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use fastreg::config::ClusterConfig;
use fastreg::harness::RegisterOps;
use fastreg::layout::Layout;
use fastreg::protocols::registry::Contract;
use fastreg::types::{RegValue, Value};
use fastreg_atomicity::history::{History, HistoryEvent};
use fastreg_atomicity::linearizability::LinCheckError;
use fastreg_atomicity::regularity::RegularityViolation;
use fastreg_atomicity::swmr::AtomicityViolation;
use fastreg_atomicity::verdict::Verdict;
use fastreg_simnet::world::QuiescenceError;

use crate::spans::Spans;
use crate::sys::now;

/// Calls and time spent in one group of methods.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timer {
    /// Calls made.
    pub calls: u64,
    /// Time inside them.
    pub time: Duration,
}

impl Timer {
    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.time.as_nanos() as f64 / self.calls as f64
        }
    }
}

/// The method groups the probe separates.
#[derive(Clone, Copy)]
enum Group {
    /// Operation invocations: `write_by`, `read_async`, `write`.
    Invoke,
    /// `step_timed`: one scheduler step on simnet, a yield on threads.
    Step,
    /// `drain_history_events`.
    Drain,
    /// Every other call (idleness and clock queries, settle, snapshot).
    Other,
}

impl Group {
    fn name(self) -> &'static str {
        match self {
            Group::Invoke => "invoke",
            Group::Step => "step_timed",
            Group::Drain => "drain_history",
            Group::Other => "cluster_other",
        }
    }
}

/// Times the calls into `inner`, optionally recording a span per
/// invocation, step and drain.
pub struct Probe<'a> {
    inner: &'a mut dyn RegisterOps,
    spans: Option<(RefCell<&'a mut Spans>, u64)>,
    timers: [Cell<Timer>; 4],
}

impl<'a> Probe<'a> {
    /// Wraps `inner`; with `spans`, every call also becomes a span whose
    /// parent is the given span id.
    pub fn new(inner: &'a mut dyn RegisterOps, spans: Option<(&'a mut Spans, u64)>) -> Self {
        Probe {
            inner,
            spans: spans.map(|(s, parent)| (RefCell::new(s), parent)),
            timers: Default::default(),
        }
    }

    /// Operation invocations.
    pub fn invoke(&self) -> Timer {
        self.timers[Group::Invoke as usize].get()
    }

    /// Scheduler steps (polls).
    pub fn step(&self) -> Timer {
        self.timers[Group::Step as usize].get()
    }

    /// Time spent inside the deployment, all groups together.
    pub fn total(&self) -> Duration {
        self.timers.iter().map(|t| t.get().time).sum()
    }

    fn account(&self, group: Group, start: Instant) {
        let end = now();
        let cell = &self.timers[group as usize];
        let mut t = cell.get();
        t.calls += 1;
        t.time += end - start;
        cell.set(t);
        if let (Some((spans, parent)), false) = (&self.spans, matches!(group, Group::Other)) {
            spans
                .borrow_mut()
                .leaf(Some(*parent), group.name(), 1, start, end);
        }
    }
}

macro_rules! timed {
    ($self:ident, $group:expr, $call:expr) => {{
        let start = now();
        let out = $call;
        $self.account($group, start);
        out
    }};
}

impl RegisterOps for Probe<'_> {
    fn cfg(&self) -> ClusterConfig {
        self.inner.cfg()
    }
    fn layout(&self) -> Layout {
        self.inner.layout()
    }
    fn write_by(&mut self, wid: u32, value: Value) {
        timed!(self, Group::Invoke, self.inner.write_by(wid, value))
    }
    fn read_async(&mut self, index: u32) {
        timed!(self, Group::Invoke, self.inner.read_async(index))
    }
    fn settle(&mut self) {
        timed!(self, Group::Other, self.inner.settle())
    }
    fn try_settle(&mut self) -> Result<u64, QuiescenceError> {
        timed!(self, Group::Other, self.inner.try_settle())
    }
    fn read(&mut self, index: u32) -> RegValue {
        timed!(self, Group::Other, self.inner.read(index))
    }
    fn snapshot(&self) -> History {
        timed!(self, Group::Other, self.inner.snapshot())
    }
    fn ops_recorded(&self) -> u64 {
        timed!(self, Group::Other, self.inner.ops_recorded())
    }
    fn ops_completed(&self) -> u64 {
        timed!(self, Group::Other, self.inner.ops_completed())
    }
    fn client_busy(&self, proc: u32) -> bool {
        timed!(self, Group::Other, self.inner.client_busy(proc))
    }
    fn check_atomic(&self) -> Result<(), AtomicityViolation> {
        self.inner.check_atomic()
    }
    fn check_linearizable(&self) -> Result<bool, LinCheckError> {
        self.inner.check_linearizable()
    }
    fn check_regular(&self) -> Result<(), RegularityViolation> {
        self.inner.check_regular()
    }
    fn now_ticks(&self) -> u64 {
        timed!(self, Group::Other, self.inner.now_ticks())
    }
    fn advance_to_ticks(&mut self, ticks: u64) {
        timed!(self, Group::Other, self.inner.advance_to_ticks(ticks))
    }
    fn step_timed(&mut self) -> bool {
        timed!(self, Group::Step, self.inner.step_timed())
    }
    fn messages_sent(&self) -> u64 {
        timed!(self, Group::Other, self.inner.messages_sent())
    }
    fn reserve_history(&mut self, additional: usize) {
        timed!(self, Group::Other, self.inner.reserve_history(additional))
    }
    fn start_history_journal(&mut self) -> bool {
        timed!(self, Group::Other, self.inner.start_history_journal())
    }
    fn drain_history_events(&mut self) -> Vec<HistoryEvent> {
        timed!(self, Group::Drain, self.inner.drain_history_events())
    }
    fn write(&mut self, value: Value) {
        timed!(self, Group::Invoke, self.inner.write(value))
    }
    fn write_sync(&mut self, value: Value) {
        timed!(self, Group::Other, self.inner.write_sync(value))
    }
    fn contract_verdict(&self, contract: Contract) -> Verdict {
        self.inner.contract_verdict(contract)
    }
}
