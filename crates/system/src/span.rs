//! Hierarchical span profiling (the recording half of DESIGN.md §14).
//!
//! A *span* is a named scope on the call path of a protocol run — the
//! session engine opens `session → pass → round` scopes and the simulator
//! opens the `poll`/`slot` leaves — and the profiler aggregates, per
//! distinct call path, how much **sim-time** (C1G2 clock microseconds) and
//! **host wall-time** the scope consumed, with self/child attribution.
//!
//! The design copies the [`crate::EventLog`] discipline exactly:
//!
//! * recording is behind a cold `enabled` flag — a disabled profiler's
//!   [`SpanProfiler::enter`]/[`SpanProfiler::exit`] return before touching
//!   any storage or reading any clock, so sweeps keep the calls
//!   unconditional and pay one predictable branch (`benches/obs.rs`
//!   guards this);
//! * the profiler lives on the [`crate::SimContext`] but is **transient**:
//!   it is never serialized into a session snapshot (wall-time is
//!   inherently machine-local) and is rebuilt from the
//!   [`crate::SimConfig`] on restore, exactly like the round index and
//!   the arenas;
//! * recording never touches the RNG, the clock, the counters or the
//!   trace, so a profiled run is bit-identical to an unprofiled one —
//!   `session::tests::profiling_does_not_perturb_the_run` in
//!   `rfid-protocols` enforces this.
//!
//! Aggregation is a trie keyed by `(parent, name)`: the same `&'static
//! str` name under two different parents is two nodes, so `round` under
//! pass 1 and pass 2 folds into one path while `poll` under `round` stays
//! distinct from a hypothetical `poll` at top level. The analysis half —
//! folded-stack (collapsed flamegraph) export and rendering — lives in
//! `rfid_obs::span`, mirroring the trace/metrics split.

use std::time::Instant;

use rfid_c1g2::Micros;

/// One aggregated node of the span trie: a distinct call path, identified
/// by its name and its parent node.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Scope name (static: span names are code locations, not data).
    pub name: &'static str,
    /// Index of the parent node in [`SpanProfiler::nodes`]; `None` for
    /// roots.
    pub(crate) parent: Option<usize>,
    /// Completed enter/exit pairs aggregated into this node.
    pub calls: u64,
    /// Total sim-time spent inside this scope, in microseconds (children
    /// included).
    pub sim_total_us: f64,
    /// Sim-time attributed to direct children, in microseconds.
    pub(crate) sim_child_us: f64,
    /// Total host wall-time spent inside this scope, in nanoseconds
    /// (children included).
    pub wall_total_ns: u64,
    /// Wall-time attributed to direct children, in nanoseconds.
    pub(crate) wall_child_ns: u64,
    /// Child node indices, in first-entry order (deterministic: sim
    /// execution order).
    children: Vec<usize>,
}

impl SpanNode {
    /// Sim-time spent in this scope itself, excluding children.
    pub fn sim_self_us(&self) -> f64 {
        (self.sim_total_us - self.sim_child_us).max(0.0)
    }

    /// Wall-time spent in this scope itself, excluding children.
    pub fn wall_self_ns(&self) -> u64 {
        self.wall_total_ns.saturating_sub(self.wall_child_ns)
    }

    /// Child node indices, in first-entry order.
    pub fn children(&self) -> &[usize] {
        &self.children
    }
}

/// One open (entered, not yet exited) span.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    node: usize,
    sim_enter_us: f64,
    wall_enter: Instant,
}

/// The span recorder: a trie of aggregated `SpanNode`s plus the stack of
/// currently open scopes.
#[derive(Debug, Clone, Default)]
pub struct SpanProfiler {
    enabled: bool,
    nodes: Vec<SpanNode>,
    stack: Vec<OpenSpan>,
}

impl SpanProfiler {
    /// A recording profiler.
    pub fn enabled() -> Self {
        SpanProfiler {
            enabled: true,
            ..SpanProfiler::default()
        }
    }

    /// A disabled profiler: every record path is a no-op.
    pub fn disabled() -> Self {
        SpanProfiler::default()
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a scope named `name` under the currently open scope (or at
    /// top level), stamped with the sim clock's current reading. No-op
    /// when disabled.
    #[inline]
    pub fn enter(&mut self, name: &'static str, sim_now: Micros) {
        if !self.enabled {
            return;
        }
        self.enter_slow(name, sim_now);
    }

    fn enter_slow(&mut self, name: &'static str, sim_now: Micros) {
        let parent = self.stack.last().map(|o| o.node);
        let node = self.intern(parent, name);
        self.stack.push(OpenSpan {
            node,
            sim_enter_us: sim_now.as_f64(),
            wall_enter: Instant::now(),
        });
    }

    /// Closes the innermost open scope, charging its elapsed sim- and
    /// wall-time (and attributing both to the parent's child totals).
    /// No-op when disabled or when no scope is open.
    #[inline]
    pub fn exit(&mut self, sim_now: Micros) {
        if !self.enabled {
            return;
        }
        self.exit_slow(sim_now);
    }

    fn exit_slow(&mut self, sim_now: Micros) {
        debug_assert!(!self.stack.is_empty(), "span exit without a matching enter");
        let Some(open) = self.stack.pop() else {
            return;
        };
        let sim_dt = (sim_now.as_f64() - open.sim_enter_us).max(0.0);
        let wall_dt = open.wall_enter.elapsed().as_nanos() as u64;
        let node = &mut self.nodes[open.node];
        node.calls += 1;
        node.sim_total_us += sim_dt;
        node.wall_total_ns += wall_dt;
        if let Some(parent) = node.parent {
            let p = &mut self.nodes[parent];
            p.sim_child_us += sim_dt;
            p.wall_child_ns += wall_dt;
        }
    }

    /// The node for `(parent, name)`, created on first use.
    fn intern(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let existing = match parent {
            Some(p) => self.nodes[p]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].name == name),
            None => (0..self.nodes.len())
                .find(|&i| self.nodes[i].parent.is_none() && self.nodes[i].name == name),
        };
        if let Some(idx) = existing {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode {
            name,
            parent,
            calls: 0,
            sim_total_us: 0.0,
            sim_child_us: 0.0,
            wall_total_ns: 0,
            wall_child_ns: 0,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.nodes[p].children.push(idx);
        }
        idx
    }

    /// Every aggregated node (trie order: first-entry order).
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Indices of the root nodes, in first-entry order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent.is_none())
            .collect()
    }

    /// The full `root;…;name` path of node `idx`.
    pub fn path(&self, idx: usize) -> Vec<&'static str> {
        let mut path = Vec::new();
        let mut at = Some(idx);
        while let Some(i) = at {
            path.push(self.nodes[i].name);
            at = self.nodes[i].parent;
        }
        path.reverse();
        path
    }

    /// Names of the currently open scopes, outermost first.
    pub fn open_stack(&self) -> Vec<&'static str> {
        self.stack.iter().map(|o| self.nodes[o.node].name).collect()
    }

    /// `true` when nothing was ever recorded (also true when disabled).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: f64) -> Micros {
        Micros::from_us(us)
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = SpanProfiler::disabled();
        p.enter("session", at(0.0));
        p.enter("round", at(1.0));
        p.exit(at(2.0));
        p.exit(at(3.0));
        assert!(!p.is_enabled());
        assert!(p.is_empty());
        assert!(p.open_stack().is_empty());
    }

    #[test]
    fn nested_spans_attribute_self_and_child_time() {
        let mut p = SpanProfiler::enabled();
        p.enter("session", at(0.0));
        p.enter("round", at(10.0));
        p.exit(at(40.0)); // round: 30 µs
        p.enter("round", at(50.0));
        p.exit(at(70.0)); // round: 20 µs
        p.exit(at(100.0)); // session: 100 µs total, 50 µs in children

        let roots = p.roots();
        assert_eq!(roots.len(), 1);
        let session = &p.nodes()[roots[0]];
        assert_eq!(session.name, "session");
        assert_eq!(session.calls, 1);
        assert!((session.sim_total_us - 100.0).abs() < 1e-9);
        assert!((session.sim_child_us - 50.0).abs() < 1e-9);
        assert!((session.sim_self_us() - 50.0).abs() < 1e-9);

        assert_eq!(
            session.children().len(),
            1,
            "both rounds fold into one path"
        );
        let round = &p.nodes()[session.children()[0]];
        assert_eq!(round.calls, 2);
        assert!((round.sim_total_us - 50.0).abs() < 1e-9);
        assert_eq!(round.sim_child_us, 0.0);
        assert_eq!(p.path(session.children()[0]), ["session", "round"]);
    }

    #[test]
    fn same_name_under_different_parents_is_two_nodes() {
        let mut p = SpanProfiler::enabled();
        p.enter("a", at(0.0));
        p.enter("x", at(0.0));
        p.exit(at(1.0));
        p.exit(at(1.0));
        p.enter("b", at(1.0));
        p.enter("x", at(1.0));
        p.exit(at(2.0));
        p.exit(at(2.0));
        let paths: Vec<Vec<&str>> = (0..p.nodes().len()).map(|i| p.path(i)).collect();
        assert!(paths.contains(&vec!["a", "x"]));
        assert!(paths.contains(&vec!["b", "x"]));
        assert_eq!(p.roots().len(), 2);
    }

    #[test]
    fn open_stack_reports_unclosed_scopes_outermost_first() {
        let mut p = SpanProfiler::enabled();
        p.enter("session", at(0.0));
        p.enter("pass", at(0.0));
        p.enter("round", at(5.0));
        assert_eq!(p.open_stack(), ["session", "pass", "round"]);
        // Open scopes have not been charged yet.
        assert_eq!(p.nodes().iter().map(|n| n.calls).sum::<u64>(), 0);
        p.exit(at(6.0));
        assert_eq!(p.open_stack(), ["session", "pass"]);
    }

    #[test]
    fn wall_time_accumulates_and_attributes_to_parents() {
        let mut p = SpanProfiler::enabled();
        p.enter("outer", at(0.0));
        p.enter("inner", at(0.0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.exit(at(0.0));
        p.exit(at(0.0));
        let outer = &p.nodes()[p.roots()[0]];
        let inner = &p.nodes()[outer.children()[0]];
        assert!(inner.wall_total_ns >= 1_000_000, "sleep must be visible");
        assert!(outer.wall_total_ns >= inner.wall_total_ns);
        assert_eq!(outer.wall_child_ns, inner.wall_total_ns);
        assert!(outer.wall_self_ns() <= outer.wall_total_ns);
    }

    #[test]
    fn unmatched_exit_is_ignored_in_release() {
        let mut p = SpanProfiler::enabled();
        // Only exercise the no-stack path when debug assertions are off;
        // under debug the contract is enforced loudly.
        if !cfg!(debug_assertions) {
            p.exit(at(1.0));
            assert!(p.is_empty());
        }
    }
}
