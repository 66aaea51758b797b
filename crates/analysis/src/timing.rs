//! The C1G2 execution-time model — Fig. 1, the table rows and the lower
//! bound.
//!
//! Section V-A's per-poll cost (with the conventions recovered from the
//! table anchors, see DESIGN.md §3):
//!
//! * a polling protocol spends `37.45·(4 + w) + T1 + 25·l + T2` µs per tag —
//!   a 4-bit QueryRep, the `w`-bit polling vector, the turnarounds and the
//!   `l`-bit payload;
//! * CPP spends `37.45·96 + T1 + 25·l + T2` µs (the ID *is* the command);
//! * the lower bound keeps only the mandatory parts:
//!   `(37.45·4 + T1 + 25·l + T2)·n` µs.

use rfid_c1g2::{LinkParams, Micros, QUERY_REP_BITS};

/// Per-tag time for a polling protocol with average vector length `w` bits
/// collecting `l` payload bits (Fig. 1's y-axis for `l = 1`).
pub fn poll_time_per_tag(link: &LinkParams, w: f64, l: u64) -> Micros {
    execution_time(link, 1, w, l)
}

/// Per-tag time of the conventional polling protocol (96-bit ID, no
/// QueryRep prefix — the accounting that reproduces Table I's 37.70 s).
pub fn cpp_time_per_tag(link: &LinkParams, l: u64) -> Micros {
    link.reader_tx(96) + link.t1 + link.tag_tx(l) + link.t2
}

/// Per-tag lower bound for any C1G2 information-collection protocol.
pub fn lower_bound_per_tag(link: &LinkParams, l: u64) -> Micros {
    link.reader_tx(QUERY_REP_BITS) + link.t1 + link.tag_tx(l) + link.t2
}

/// Total lower bound for `n` tags.
pub fn lower_bound(link: &LinkParams, n: u64, l: u64) -> Micros {
    lower_bound_per_tag(link, l) * n
}

/// Total execution time for `n` tags at average vector length `w`. The
/// fractional `n·w` vector bits are rounded to the nanosecond once, on
/// the total.
pub fn execution_time(link: &LinkParams, n: u64, w: f64, l: u64) -> Micros {
    lower_bound(link, n, l) + link.reader_bit * (w * n as f64)
}

/// The Fig. 1 series: execution time (ms) to collect 1 bit from one tag as
/// the polling-vector length sweeps `0..=max_w`.
pub fn fig1_series(link: &LinkParams, max_w: u64) -> Vec<(u64, f64)> {
    (0..=max_w)
        .map(|w| (w, poll_time_per_tag(link, w as f64, 1).as_ms()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkParams {
        LinkParams::paper()
    }

    #[test]
    fn table1_cpp_anchor() {
        // Table I: CPP takes 37.70 s for n = 10⁴, l = 1.
        let t = cpp_time_per_tag(&link(), 1) * 10_000u64;
        assert!((t.as_secs() - 37.70).abs() < 0.01, "CPP = {}", t);
    }

    #[test]
    fn table1_lower_bound_anchor() {
        // TPP's 4.39 s is quoted as 1.35× the lower bound → LB ≈ 3.25 s.
        let lb = lower_bound(&link(), 10_000, 1);
        assert!((lb.as_secs() - 3.25).abs() < 0.01, "LB = {}", lb);
    }

    #[test]
    fn table1_tpp_anchor_from_simulated_w() {
        // With the simulated w ≈ 3.06 the model reproduces TPP's 4.39 s.
        let t = execution_time(&link(), 10_000, 3.06, 1);
        assert!((t.as_secs() - 4.39).abs() < 0.01, "TPP = {}", t);
    }

    #[test]
    fn table1_hpp_anchor_from_simulated_w() {
        // HPP's 8.12 s corresponds to w ≈ 13.0 at n = 10⁴ (includes the
        // per-round initiation overhead the simulation charges).
        let t = execution_time(&link(), 10_000, 13.0, 1);
        assert!((t.as_secs() - 8.12).abs() < 0.05, "HPP = {}", t);
    }

    #[test]
    fn fig1_is_linear_in_w() {
        let series = fig1_series(&link(), 100);
        let slope0 = series[1].1 - series[0].1;
        let slope_last = series[100].1 - series[99].1;
        assert!((slope0 - slope_last).abs() < 1e-12);
        // Slope is one reader bit: 37.45 µs = 0.03745 ms.
        assert!((slope0 - 0.03745).abs() < 1e-9);
        // Intercept: 37.45·4 + 100 + 25 + 50 = 324.8 µs.
        assert!((series[0].1 - 0.3248).abs() < 1e-9);
    }

    #[test]
    fn payload_length_scales_tag_side_only() {
        let l1 = poll_time_per_tag(&link(), 3.0, 1);
        let l32 = poll_time_per_tag(&link(), 3.0, 32);
        assert_eq!(l32 - l1, link().tag_bit * 31u64);
    }

    #[test]
    fn lower_bound_below_every_protocol() {
        for l in [1u64, 16, 32] {
            let lb = lower_bound_per_tag(&link(), l);
            assert!(lb < poll_time_per_tag(&link(), 0.5, l));
            assert!(lb < cpp_time_per_tag(&link(), l));
        }
    }

    #[test]
    fn table3_ratio_anchors() {
        // Table III (l = 32, n = 10⁴): CPP ≈ 4.14× LB, TPP ≈ 1.10× LB.
        let lb = lower_bound(&link(), 10_000, 32).as_secs();
        let cpp = (cpp_time_per_tag(&link(), 32) * 10_000u64).as_secs();
        assert!((cpp / lb - 4.14).abs() < 0.05, "CPP ratio {}", cpp / lb);
        let tpp = execution_time(&link(), 10_000, 3.06, 32).as_secs();
        assert!((tpp / lb - 1.10).abs() < 0.02, "TPP ratio {}", tpp / lb);
    }
}
