//! Spans recorded by the traced run, kept in memory and written at the
//! end as Chrome `trace_event` JSON (opens in Perfetto or
//! `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    lane: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// An in-memory span log with a cap; spans past the cap are counted,
/// not kept.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    next_id: u64,
    dropped: u64,
}

impl Spans {
    /// A log whose timestamps count from `origin`, keeping at most `cap`
    /// spans.
    pub fn new(origin: Instant, cap: usize) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
            cap,
            next_id: 1,
            dropped: 0,
        }
    }

    /// Reserves the id of a span that will be closed later, so that
    /// spans it causes can name it as their parent.
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Whether another span would still be kept.
    pub fn has_room(&self) -> bool {
        self.spans.len() < self.cap
    }

    /// Closes span `id`, which ran from `start` to `end` on `lane`.
    pub fn close(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        lane: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.has_room() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            lane,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Records a span that caused nothing else.
    pub fn leaf(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        lane: u32,
        start: Instant,
        end: Instant,
    ) {
        if self.has_room() {
            let id = self.open();
            self.close(id, parent, name, lane, start, end);
        } else {
            self.dropped += 1;
        }
    }

    /// The log as Chrome `trace_event` JSON: one complete (`"X"`) event
    /// per span, timestamps in µs, the parent id in `args`.
    pub fn chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.lane,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_kept\":{},\"spans_dropped\":{}}}}}\n",
            self.spans.len(),
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parents_and_the_cap_show_in_the_json() {
        let t0 = crate::sys::now();
        let mut s = Spans::new(t0, 2);
        let root = s.open();
        s.leaf(Some(root), "child", 1, t0, t0 + Duration::from_micros(5));
        s.close(root, None, "root", 0, t0, t0 + Duration::from_micros(10));
        s.leaf(Some(root), "lost", 1, t0, t0);
        let json = s.chrome_json("test");
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains(&format!("\"parent\":{root}")));
        assert!(json.contains("\"dur\":10.000"));
        assert!(!json.contains("lost"));
        assert!(json.contains("\"spans_dropped\":1"));
    }
}
