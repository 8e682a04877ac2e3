//! The benchmark's own output checks, computed apart from the program's
//! checkers.
//!
//! Each check returns `Err` with a one-line reason; a run whose outputs
//! fail any check reports `"correct": false` and exits non-zero.

use fastreg_atomicity::history::{History, OpKind, Operation, RegValue};

/// A failed check.
pub type CheckResult = Result<(), String>;

/// SWMR atomicity of a single-writer history whose writes carry
/// increasing values.
///
/// With one writer writing increasing values, atomicity reduces to
/// three order conditions over the completed operations (`a` precedes
/// `b` when `a` responded strictly before `b` was invoked):
///
/// 1. no read returns a value that was never written, or whose write
///    was invoked after the read responded;
/// 2. no read returns less than the last write completed before the
///    read was invoked (`⊥` counts as 0);
/// 3. no new–old inversion: if read `r1` precedes read `r2`, `r2`
///    returns at least what `r1` returned.
///
/// The writes themselves must be sequential (each invoked no earlier
/// than the previous one responded) and increasing in value, which is
/// what makes the reduction sound.
pub fn swmr_atomic(history: &History) -> CheckResult {
    swmr_atomic_ops(history.ops())
}

/// [`swmr_atomic`] over the operations of one register, in any order.
pub fn swmr_atomic_ops(ops: &[Operation]) -> CheckResult {
    let mut writes: Vec<&Operation> = ops.iter().filter(|o| o.write_value().is_some()).collect();
    writes.sort_by_key(|w| w.invoked_at);
    let value = |w: &Operation| w.write_value().expect("writes() yields writes");
    for pair in writes.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if value(b) <= value(a) {
            return Err(format!(
                "write values not increasing: {} then {}",
                value(a),
                value(b)
            ));
        }
        // Back-to-back writes may share a tick: a sequential writer
        // invokes its next write no earlier than the last one responded.
        if a.responded_at.is_none_or(|r| r > b.invoked_at) {
            return Err(format!(
                "writes of {} and {} overlap: not a single sequential writer",
                value(a),
                value(b)
            ));
        }
    }
    let read_value = |r: &Operation| match r.returned {
        Some(RegValue::Val(v)) => Ok(v),
        Some(RegValue::Bottom) => Ok(0),
        None => Err(format!("completed read {:?} returned nothing", r.id)),
    };
    let mut reads: Vec<(&Operation, u64)> = Vec::new();
    for r in ops
        .iter()
        .filter(|o| o.kind == OpKind::Read && o.is_complete())
    {
        reads.push((r, read_value(r)?));
    }
    // Completed writes in order; a write's response time grows with its
    // value because the writer is sequential.
    let completed: Vec<&Operation> = writes.iter().copied().filter(|w| w.is_complete()).collect();
    for &(r, v) in &reads {
        let inv = r.invoked_at;
        let resp = r.responded_at.expect("completed read");
        if v > 0 {
            let i = writes
                .binary_search_by_key(&v, |w| value(w))
                .map_err(|_| format!("read {:?} returned {v}, which was never written", r.id))?;
            if resp < writes[i].invoked_at {
                return Err(format!(
                    "read {:?} returned {v} at {resp}, before its write was invoked at {}",
                    r.id, writes[i].invoked_at
                ));
            }
        }
        let done_before = completed.partition_point(|w| w.responded_at.expect("completed") < inv);
        if done_before > 0 {
            let last = value(completed[done_before - 1]);
            if v < last {
                return Err(format!(
                    "read {:?} invoked at {inv} returned {v}, older than {last} written before it",
                    r.id
                ));
            }
        }
    }
    // New–old inversion: sweep reads by invocation, folding in every
    // read that responded strictly earlier.
    let mut by_resp: Vec<(u64, u64)> = reads
        .iter()
        .map(|&(r, v)| (r.responded_at.expect("completed"), v))
        .collect();
    by_resp.sort_unstable();
    let mut by_inv: Vec<(u64, u64, usize)> = reads
        .iter()
        .map(|&(r, v)| (r.invoked_at, v, r.id.0))
        .collect();
    by_inv.sort_unstable();
    let (mut next, mut max_before) = (0, 0u64);
    for (inv, v, id) in by_inv {
        while next < by_resp.len() && by_resp[next].0 < inv {
            max_before = max_before.max(by_resp[next].1);
            next += 1;
        }
        if v < max_before {
            return Err(format!(
                "new-old inversion: read op{id} invoked at {inv} returned {v} after an earlier read returned {max_before}"
            ));
        }
    }
    Ok(())
}

/// Every completed operation of `history` took between `lo` and `hi`
/// ticks, inclusive; `label` names the operations in the error.
pub fn latency_within(history: &History, label: &str, lo: u64, hi: u64) -> CheckResult {
    latency_within_ops(history.complete_ops(), label, lo, hi)
}

/// [`latency_within`] over any set of operations.
pub fn latency_within_ops<'a>(
    ops: impl IntoIterator<Item = &'a Operation>,
    label: &str,
    lo: u64,
    hi: u64,
) -> CheckResult {
    for op in ops {
        let Some(resp) = op.responded_at else {
            continue;
        };
        let took = resp - op.invoked_at;
        if took < lo || took > hi {
            let kind = match op.kind {
                OpKind::Read => "read",
                OpKind::Write { .. } => "write",
            };
            return Err(format!(
                "{label} {kind} {:?} took {took} ticks, outside one round trip [{lo}, {hi}]",
                op.id
            ));
        }
    }
    Ok(())
}

/// Every operation recorded in `history` completed, and there are `n`.
pub fn all_complete(history: &History, n: u64) -> CheckResult {
    if history.len() as u64 != n || history.completed_len() as u64 != n {
        return Err(format!(
            "expected {n} completed ops, history has {} recorded and {} completed",
            history.len(),
            history.completed_len()
        ));
    }
    Ok(())
}

/// `actual == expected` for a named count.
pub fn count_eq(name: &str, actual: u64, expected: u64) -> CheckResult {
    if actual == expected {
        Ok(())
    } else {
        Err(format!("{name}: expected {expected}, got {actual}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a history from `(is_write, value, invoked, responded)`
    /// rows; `value` is the written value or the read's return (0 = ⊥).
    /// Writes are by process 0, reads by process 1 + row index.
    fn history(rows: &[(bool, u64, u64, u64)]) -> History {
        let mut h = History::new();
        for (i, &(is_write, v, inv, resp)) in rows.iter().enumerate() {
            if is_write {
                let id = h.invoke_write(0, v, inv);
                h.respond(id, None, resp);
            } else {
                let id = h.invoke_read(1 + i as u32, inv);
                let ret = if v == 0 {
                    RegValue::Bottom
                } else {
                    RegValue::Val(v)
                };
                h.respond(id, Some(ret), resp);
            }
        }
        h
    }

    #[test]
    fn accepts_an_atomic_history() {
        let h = history(&[
            (false, 0, 0, 3),
            (true, 1, 1, 10),
            (false, 1, 4, 12), // concurrent with the write: may see it
            (false, 1, 13, 20),
            (true, 2, 11, 30),
            (false, 1, 21, 25), // concurrent with write 2: may miss it
            (false, 2, 31, 40),
        ]);
        swmr_atomic(&h).unwrap();
    }

    #[test]
    fn rejects_a_value_from_the_future() {
        // The read responds at 5; write 1 is invoked at 6.
        let h = history(&[(false, 1, 0, 5), (true, 1, 6, 9)]);
        let e = swmr_atomic(&h).unwrap_err();
        assert!(e.contains("before its write was invoked"), "{e}");
    }

    #[test]
    fn rejects_a_value_never_written() {
        let h = history(&[(true, 1, 0, 5), (false, 7, 6, 9)]);
        let e = swmr_atomic(&h).unwrap_err();
        assert!(e.contains("never written"), "{e}");
    }

    #[test]
    fn rejects_a_stale_read() {
        // Write 2 completed at 20; a read invoked at 21 returns 1.
        let h = history(&[(true, 1, 0, 10), (true, 2, 11, 20), (false, 1, 21, 30)]);
        let e = swmr_atomic(&h).unwrap_err();
        assert!(e.contains("older than 2"), "{e}");
    }

    #[test]
    fn rejects_a_new_old_inversion() {
        // Both reads overlap the write, but the first precedes the
        // second and saw the newer value.
        let h = history(&[(true, 1, 0, 100), (false, 1, 10, 20), (false, 0, 30, 40)]);
        let e = swmr_atomic(&h).unwrap_err();
        assert!(e.contains("new-old inversion"), "{e}");
    }

    #[test]
    fn rejects_overlapping_or_decreasing_writes() {
        let overlap = history(&[(true, 1, 0, 10), (true, 2, 5, 15)]);
        assert!(swmr_atomic(&overlap).unwrap_err().contains("overlap"));
        let decreasing = history(&[(true, 2, 0, 10), (true, 1, 11, 15)]);
        assert!(swmr_atomic(&decreasing)
            .unwrap_err()
            .contains("not increasing"));
    }

    #[test]
    fn latency_bounds_reject_a_slow_or_too_fast_op() {
        let h = history(&[(true, 1, 0, 10), (false, 1, 11, 112)]);
        assert!(latency_within(&h, "t", 10, 100)
            .unwrap_err()
            .contains("took 101"));
        let fast = history(&[(true, 1, 0, 3)]);
        assert!(latency_within(&fast, "t", 10, 100)
            .unwrap_err()
            .contains("took 3"));
        latency_within(&h, "t", 10, 101).unwrap();
    }

    #[test]
    fn counts_reject_a_mismatch() {
        count_eq("sent", 9, 9).unwrap();
        assert!(count_eq("sent", 10, 9).unwrap_err().contains("sent"));
        let h = history(&[(true, 1, 0, 10)]);
        all_complete(&h, 1).unwrap();
        all_complete(&h, 2).unwrap_err();
        let mut pending = History::new();
        pending.invoke_read(1, 0);
        all_complete(&pending, 1).unwrap_err();
    }
}
