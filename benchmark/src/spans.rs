//! In-memory spans recorded by the benchmark's own code around the
//! calls into each layer: name, start, end, and the span that caused it.
//! Kept in memory and written out when the traced run ends. A recorder
//! that is off costs one branch per call, so the untraced measurement
//! runs the same driver code.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

/// An open span; hand it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Record `f` as one span under whatever is open.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let span = self.open(name);
        let r = f(self);
        self.close(span);
        r
    }

    /// Adopt intervals timed on another thread (offsets from
    /// [`Tracer::origin`]) as children of whichever span of `parents`
    /// was open when each began.
    pub fn adopt(
        &mut self,
        name: &'static str,
        intervals: &[(u64, u64)],
        parents: &[&'static str],
    ) {
        if !self.on {
            return;
        }
        for &(start_ns, end_ns) in intervals {
            let parent = self
                .spans
                .iter()
                .position(|s| {
                    parents.contains(&s.name) && s.start_ns <= start_ns && start_ns < s.end_ns
                })
                .map(|i| i as u32);
            self.spans.push(Span { name, parent, start_ns, end_ns });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: calls, total time, and self time — the span's
    /// duration minus the part of it its child spans cover — in
    /// milliseconds, keyed for a stable print order.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Total milliseconds under spans of this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e6
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", Json::Num(id as f64)),
                        ("workload", Json::Str(workload.to_string())),
                        ("name", Json::Str(s.name.to_string())),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.scope("outer", |t| {
            t.scope("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let by = t.by_name();
        let (calls, total, own) = by["outer"];
        assert_eq!(calls, 1);
        assert!(total >= 2.0 && own < total - 1.9, "outer total {total} self {own}");
        assert_eq!(t.spans()[1].parent, Some(0));

        let mut off = Tracer::new(false);
        off.scope("x", |_| ());
        assert!(off.spans().is_empty());
    }
}
