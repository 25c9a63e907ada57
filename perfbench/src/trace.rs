//! The benchmark's own tracing: spans measured around calls into the
//! program's public functions, kept in memory, aggregated per op.
//!
//! A span tree is checked as it is recorded: the children of every span
//! must sum to no more than the span itself, and a span with children
//! gets an explicit `<name>.other` remainder, so no time goes
//! unattributed.

use std::collections::BTreeMap;
use std::time::Instant;

/// One measured span and the spans it caused.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub ns: u64,
    pub children: Vec<Span>,
}

impl Span {
    pub fn new(name: impl Into<String>, ns: u64) -> Self {
        Span {
            name: name.into(),
            ns,
            children: Vec::new(),
        }
    }

    pub fn child(mut self, c: Span) -> Self {
        self.children.push(c);
        self
    }
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Per-run trace state: per-op samples by layer name, attribution
/// violations, and the recorded span trees.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Samples per layer name, one per op (or per set-up) that touched it.
    samples: BTreeMap<String, Vec<f64>>,
    /// Sums for the op in progress, flushed into `samples` by `end_op`.
    pending: BTreeMap<String, f64>,
    /// Ops closed with `end_op`.
    pub ops: u64,
    /// Attribution checks that failed.
    pub violations: Vec<String>,
}

impl Tracer {
    /// Add `v` to layer `name` for the op in progress.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.pending.entry(name.to_owned()).or_insert(0.0) += v;
    }

    /// Record a standalone sample for `name` (set-up and per-cycle
    /// measurements that belong to no op).
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_owned()).or_default().push(v);
    }

    /// Record a span tree for the op in progress: every node's time is
    /// added under its name and every parent gets its `.other`
    /// remainder.
    pub fn tree(&mut self, root: Span) {
        self.walk(&root);
    }

    fn walk(&mut self, s: &Span) {
        self.add(&s.name, s.ns as f64);
        if s.children.is_empty() {
            return;
        }
        let sum: u64 = s.children.iter().map(|c| c.ns).sum();
        if sum > s.ns {
            self.violations.push(format!(
                "children of {} sum to {sum} ns > its own {} ns",
                s.name, s.ns
            ));
        }
        self.add(
            &format!("{}.other", s.name),
            s.ns.saturating_sub(sum) as f64,
        );
        for c in &s.children {
            self.walk(c);
        }
    }

    /// Close the op in progress: each layer it touched gets one sample.
    pub fn end_op(&mut self) {
        self.ops += 1;
        for (k, v) in std::mem::take(&mut self.pending) {
            self.samples.entry(k).or_default().push(v);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of every sample of `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    /// Sum of `name` divided by the ops closed — a per-op mean that
    /// counts ops which did not touch the layer as 0.
    pub fn per_op(&self, name: &str) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total(name) / self.ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remainders_and_violations() {
        let mut t = Tracer::default();
        t.tree(
            Span::new("op", 100)
                .child(Span::new("a", 30))
                .child(Span::new("b", 50).child(Span::new("c", 60))),
        );
        t.end_op();
        assert_eq!(t.samples("op.other"), &[20.0]);
        assert_eq!(t.samples("b.other"), &[0.0]);
        assert_eq!(t.violations.len(), 1, "c exceeds its parent b");
        assert!(t.samples("a.other").is_empty(), "leaves get no remainder");
    }

    #[test]
    fn repeated_names_sum_within_an_op() {
        let mut t = Tracer::default();
        t.add("x", 1.0);
        t.add("x", 2.0);
        t.end_op();
        t.end_op();
        assert_eq!(t.samples("x"), &[3.0]);
        assert_eq!(t.per_op("x"), 1.5);
    }
}
