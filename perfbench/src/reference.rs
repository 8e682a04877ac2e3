//! The reference kernel: fixed, program-independent work whose time
//! tracks how fast the host runs at the moment.
//!
//! On a shared host the same round of the same operations can take
//! half again as long from one second to the next, because other
//! tenants contend for the cores and caches. Timing the kernel right
//! before and after each round and scaling the round's throughput by
//! `kernel time / REFERENCE_NOMINAL` cancels the slowdowns that hit the
//! program and the kernel alike. The kernel uses only the standard
//! library, so no change to the program changes it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::sys::now;

/// The kernel's time on an idle host of the kind the reference figures
/// in `README.md` come from: normalized figures read as if every round
/// ran on such a host.
pub const REFERENCE_NOMINAL: Duration = Duration::from_millis(5);

/// Runs the kernel once and returns its wall time. The mix resembles
/// the simulator's hot path: ordered-map inserts, small-string
/// formatting, and a sort.
pub fn kernel() -> Duration {
    let t0 = now();
    let mut map = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut s = String::new();
    let mut formatted = 0usize;
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, i);
        if i % 4 == 0 {
            s.clear();
            let _ = write!(s, "{:?}", (x, i, "msg"));
            formatted += s.len();
        }
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    std::hint::black_box((keys, formatted));
    now() - t0
}

/// How much slower than nominal the host ran, from the kernel times
/// measured around a span of work.
pub fn slowdown(before: Duration, after: Duration) -> f64 {
    (before + after).as_secs_f64() / 2.0 / REFERENCE_NOMINAL.as_secs_f64()
}
