//! Span-tree export: folded stacks and flame rendering.
//!
//! The recording half lives in [`rfid_system::SpanProfiler`] (on the
//! simulation context, so the `poll`/`slot` leaves can be instrumented
//! without a dependency cycle); this module is the analysis half, mirroring
//! the trace/metrics split. It turns the aggregated span trie, whose
//! nodes resolve their own self-times, into:
//!
//! * [`folded_stacks`] — the deterministic *collapsed flamegraph* format
//!   (`root;child;leaf <value>`, one line per call path), consumable by
//!   standard `flamegraph.pl`-family tooling. Values are **sim-time
//!   self-microseconds** (rounded): wall-times vary run to run, so they are
//!   deliberately excluded from the deterministic export,
//! * [`render_flame`] — a plain-text indented tree with calls, sim total /
//!   self, and wall total / self columns, for terminal reading.

use rfid_system::SpanProfiler;

/// The collapsed-flamegraph export: one `path;to;scope <value>` line per
/// call path with nonzero self sim-time (value = self sim-µs, rounded to
/// the nearest integer), sorted lexicographically.
///
/// Deterministic by construction: sim-time is a pure function of the run,
/// the rounding is fixed, and the sort removes first-entry-order
/// sensitivity — two bit-identical runs fold to byte-identical output.
pub fn folded_stacks(p: &SpanProfiler) -> Vec<String> {
    let mut lines = Vec::new();
    for idx in 0..p.nodes().len() {
        let node = &p.nodes()[idx];
        if node.calls == 0 {
            continue;
        }
        let value = node.sim_self_us().round() as u64;
        if value == 0 {
            continue;
        }
        lines.push(format!("{} {value}", p.path(idx).join(";")));
    }
    lines.sort();
    lines
}

fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{us:.1}µs")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

fn render_into(out: &mut String, p: &SpanProfiler, idx: usize, depth: usize) {
    let node = &p.nodes()[idx];
    let indent = "  ".repeat(depth);
    out.push_str(&format!(
        "{indent}{name:<w$} {calls:>9} {st:>10} {ss:>10} {wt:>10} {ws:>10}\n",
        name = node.name,
        w = 24usize.saturating_sub(indent.len()).max(1),
        calls = node.calls,
        st = fmt_us(node.sim_total_us),
        ss = fmt_us(node.sim_self_us()),
        wt = fmt_ns(node.wall_total_ns),
        ws = fmt_ns(node.wall_self_ns()),
    ));
    for &child in node.children() {
        render_into(out, p, child, depth + 1);
    }
}

/// Renders the span trie as a plain-text table: one row per call path,
/// indented by depth in first-entry order, with calls, sim total/self,
/// wall total/self columns.
pub fn render_flame(p: &SpanProfiler) -> String {
    if p.is_empty() {
        return "no spans recorded (run with profiling enabled)\n".to_string();
    }
    let mut out = format!(
        "{:<24} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
        "span", "calls", "sim", "sim-self", "wall", "wall-self"
    );
    for root in p.roots() {
        render_into(&mut out, p, root, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_c1g2::Micros;

    fn profiler() -> SpanProfiler {
        let at = |us: f64| Micros::from_us(us);
        let mut p = SpanProfiler::enabled();
        p.enter("session", at(0.0));
        p.enter("pass", at(0.0));
        p.enter("round", at(0.0));
        p.exit(at(300.0));
        p.enter("round", at(300.0));
        p.exit(at(500.0));
        p.exit(at(600.0));
        p.exit(at(600.0));
        p
    }

    #[test]
    fn span_tree_resolves_self_times() {
        let p = profiler();
        assert_eq!(p.roots(), [0]);
        let session = &p.nodes()[0];
        assert_eq!(session.name, "session");
        assert!((session.sim_total_us - 600.0).abs() < 1e-9);
        assert_eq!(session.sim_self_us(), 0.0, "all time is in the pass");
        let pass = &p.nodes()[session.children()[0]];
        assert!((pass.sim_self_us() - 100.0).abs() < 1e-9);
        let round = &p.nodes()[pass.children()[0]];
        assert_eq!(round.calls, 2);
        assert!((round.sim_total_us - 500.0).abs() < 1e-9);
    }

    #[test]
    fn folded_stacks_are_sorted_and_skip_zero_self() {
        let lines = folded_stacks(&profiler());
        // "session" has zero self time and is skipped as its own line; the
        // pass and the rounds carry the time.
        assert_eq!(
            lines,
            ["session;pass 100", "session;pass;round 500"],
            "collapsed format, lexicographic order"
        );
    }

    #[test]
    fn folded_stacks_are_deterministic_across_identical_runs() {
        assert_eq!(folded_stacks(&profiler()), folded_stacks(&profiler()));
    }

    #[test]
    fn empty_profiler_folds_to_nothing() {
        assert!(folded_stacks(&SpanProfiler::disabled()).is_empty());
        assert!(render_flame(&SpanProfiler::disabled()).contains("no spans"));
    }

    #[test]
    fn render_flame_shows_every_path_indented() {
        let text = render_flame(&profiler());
        assert!(text.contains("session"));
        assert!(text.contains("  pass"));
        assert!(text.contains("    round"));
        assert!(text.contains("calls"));
        // The two rounds fold into one row with calls = 2.
        assert!(text.lines().any(|l| l.contains("round") && l.contains("2")));
    }
}
