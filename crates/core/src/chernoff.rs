//! Chernoff–Hoeffding machinery used by TAA (§IV of the paper).
//!
//! The paper defines, for the sum `I` of independent `[0, 1]` random
//! variables with mean `m`,
//!
//! ```text
//! B(m, δ) = [ e^δ / (1+δ)^(1+δ) ]^m       (upper-tail bound)
//! D(m, x) : the δ with B(m, D(m, x)) = x  (its inverse in δ)
//! ```
//!
//! and picks the probability-scaling factor `μ` as the largest value with
//! `B(μc, (1−μ)/μ) < 1/(T(N+1))`.

/// Natural logarithm of `B(m, δ)`; `m ≥ 0`, `δ ≥ 0`.
///
/// Computed in log space to stay stable for large `δ`.
pub fn ln_chernoff_bound(m: f64, delta: f64) -> f64 {
    debug_assert!(m >= 0.0 && delta >= 0.0);
    if m == 0.0 || delta == 0.0 {
        return 0.0;
    }
    m * (delta - (1.0 + delta) * (1.0 + delta).ln())
}

/// The upper-tail bound `B(m, δ) = Pr[I > (1+δ)m]`-style bound.
pub fn chernoff_bound(m: f64, delta: f64) -> f64 {
    ln_chernoff_bound(m, delta).exp()
}

/// `D(m, x)`: the `δ ≥ 0` with `B(m, δ) = x`, for `x ∈ (0, 1)` and `m > 0`.
///
/// Returns `f64::INFINITY` when `m` is so small that no finite `δ`
/// reaches `x` numerically (the bound still holds vacuously: the caller
/// clamps the resulting guarantee to zero).
pub fn chernoff_delta(m: f64, x: f64) -> f64 {
    assert!((0.0..1.0).contains(&x) && x > 0.0, "x must be in (0,1)");
    if m <= 0.0 {
        return f64::INFINITY;
    }
    let target = x.ln();
    // ln B is 0 at δ=0 and strictly decreasing; expand an upper bracket.
    let mut hi = 1.0;
    while ln_chernoff_bound(m, hi) > target {
        hi *= 2.0;
        if hi > 1e12 {
            return f64::INFINITY;
        }
    }
    let (lo, hi) = bisect(0.0, hi, |mid| ln_chernoff_bound(m, mid) > target);
    0.5 * (lo + hi)
}

/// Selects the scaling factor `μ ∈ (0, 1)` per inequality (6): the largest
/// `μ` with `B(μ·c, (1−μ)/μ) < 1 / (T·(N+1))`.
///
/// `c` is the smallest positive (normalized) link capacity, `t_slots` the
/// number of slots, `n_edges` the number of edges. Returns `None` when
/// `c ≤ 0` (no capacity anywhere) or when even a vanishing `μ` violates
/// the inequality (`ln B(μc, (1−μ)/μ) = c(1−μ+ln μ)` stays above the
/// target when `c` is tiny), in which case no `μ` carries the paper's
/// probability guarantee and TAA must fall back to declining the round.
pub fn select_mu(c: f64, t_slots: usize, n_edges: usize) -> Option<f64> {
    if c <= 0.0 {
        return None;
    }
    let target = (1.0 / (t_slots as f64 * (n_edges as f64 + 1.0))).ln();
    let ok = |mu: f64| {
        let delta = (1.0 - mu) / mu;
        ln_chernoff_bound(mu * c, delta) < target
    };
    // B is increasing in μ here (less violation slack as μ→1).
    if ok(1.0 - 1e-9) {
        return Some(1.0 - 1e-9);
    }
    let lo = 1e-12;
    if !ok(lo) {
        // Even a vanishing μ fails: capacity is too small relative to the
        // constraint count, so no scaling factor satisfies inequality (6).
        // Returning a bogus tiny μ here would let TAA round with a
        // guarantee it does not have.
        return None;
    }
    let (lo, _) = bisect(lo, 1.0 - 1e-9, ok);
    Some(lo)
}

/// Up to 200 bisection steps on `[lo, hi]`, where `raise(lo)` holds and
/// `raise(hi)` does not: each step moves `lo` to the midpoint when
/// `raise` holds there and `hi` otherwise. It stops once the midpoint
/// rounds to `lo` or `hi`. From then on every step would keep both
/// bounds, so the result has the bits the full 200 steps give.
fn bisect(mut lo: f64, mut hi: f64, raise: impl Fn(f64) -> bool) -> (f64, f64) {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits() {
            break;
        }
        if raise(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    #[test]
    fn bound_is_one_at_zero_delta() {
        assert_eq!(chernoff_bound(5.0, 0.0), 1.0);
        assert_eq!(chernoff_bound(0.0, 3.0), 1.0);
    }

    #[test]
    fn bound_decreases_in_delta_and_m() {
        let b1 = chernoff_bound(2.0, 0.5);
        let b2 = chernoff_bound(2.0, 1.0);
        let b3 = chernoff_bound(4.0, 0.5);
        assert!(b2 < b1 && b1 < 1.0);
        assert!(b3 < b1);
    }

    #[test]
    fn bound_matches_closed_form() {
        // B(m, δ) = (e^δ / (1+δ)^(1+δ))^m, checked directly for m=3, δ=1.
        let direct = (1f64.exp() / 2f64.powf(2.0)).powf(3.0);
        assert!((chernoff_bound(3.0, 1.0) - direct).abs() < 1e-12);
    }

    #[test]
    fn delta_inverts_bound() {
        for &(m, x) in &[(1.0, 0.5), (3.0, 0.1), (10.0, 1e-4), (0.5, 0.9)] {
            let d = chernoff_delta(m, x);
            assert!(d.is_finite());
            assert!(
                (chernoff_bound(m, d) - x).abs() < 1e-9,
                "B({m}, {d}) != {x}"
            );
        }
    }

    #[test]
    fn delta_infinite_for_zero_mean() {
        assert!(chernoff_delta(0.0, 0.5).is_infinite());
    }

    #[test]
    fn mu_satisfies_inequality_six() {
        let (c, t, n) = (10.0, 12, 38);
        let mu = select_mu(c, t, n).unwrap();
        assert!(mu > 0.0 && mu < 1.0);
        let target = 1.0 / (t as f64 * (n as f64 + 1.0));
        assert!(chernoff_bound(mu * c, (1.0 - mu) / mu) < target);
        // Near-maximality: nudging μ up should break the inequality
        // (unless μ is already pinned at its numeric ceiling).
        if mu < 0.999 {
            let worse = (mu + 1e-3).min(1.0 - 1e-12);
            assert!(chernoff_bound(worse * c, (1.0 - worse) / worse) >= target * 0.999);
        }
    }

    #[test]
    fn mu_grows_with_capacity() {
        let small = select_mu(1.0, 12, 38).unwrap();
        let big = select_mu(50.0, 12, 38).unwrap();
        assert!(
            big > small,
            "more capacity allows less scaling: {big} vs {small}"
        );
    }

    #[test]
    fn mu_none_without_capacity() {
        assert!(select_mu(0.0, 12, 38).is_none());
        assert!(select_mu(-1.0, 12, 38).is_none());
    }

    /// [`bisect`] without the early exit: all 200 steps, every time.
    fn bisect_all_steps(mut lo: f64, mut hi: f64, raise: impl Fn(f64) -> bool) -> (f64, f64) {
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if raise(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, hi)
    }

    #[test]
    fn bisections_stop_at_their_fixed_point_with_the_bits_of_all_steps() {
        // `chernoff_delta`'s search over a sweep of (m, x): the same
        // bracket, then both bisections from it.
        let mut checked = 0;
        let mut fewest = usize::MAX;
        for m in [1e-6, 1e-3, 0.05, 0.3, 1.0, 2.5, 7.0, 40.0, 300.0, 1e4] {
            for x in [1e-12, 1e-6, 1e-3, 0.01, 0.2, 1.0 / 39.0, 0.5, 0.9, 0.999] {
                let target = f64::ln(x);
                let mut hi = 1.0;
                while ln_chernoff_bound(m, hi) > target && hi <= 1e12 {
                    hi *= 2.0;
                }
                if hi > 1e12 {
                    assert!(chernoff_delta(m, x).is_infinite());
                    continue;
                }
                let raise = |mid| ln_chernoff_bound(m, mid) > target;
                let (lo_a, hi_a) = bisect_all_steps(0.0, hi, raise);
                let calls = Cell::new(0);
                let (lo_b, hi_b) = bisect(0.0, hi, |mid| {
                    calls.set(calls.get() + 1);
                    raise(mid)
                });
                assert_eq!(
                    (lo_a.to_bits(), hi_a.to_bits()),
                    (lo_b.to_bits(), hi_b.to_bits()),
                    "delta: m = {m}, x = {x}"
                );
                let d = chernoff_delta(m, x);
                assert_eq!(d.to_bits(), (0.5 * (lo_a + hi_a)).to_bits());
                fewest = fewest.min(calls.get());
                checked += 1;
            }
        }
        assert!(checked > 60, "only {checked} finite deltas");
        assert!(fewest < 100, "the bisection ran {fewest} steps or more");
        // `select_mu`'s search over a sweep of (c, T, N).
        checked = 0;
        for c in [0.24, 0.3, 0.5, 1.0, 2.0, 3.7, 10.0, 50.0, 400.0] {
            for t in [1, 6, 12, 48] {
                for n in [1, 12, 38, 200] {
                    let target = (1.0 / (t as f64 * (n as f64 + 1.0))).ln();
                    let ok = |mu: f64| ln_chernoff_bound(mu * c, (1.0 - mu) / mu) < target;
                    if ok(1.0 - 1e-9) || !ok(1e-12) {
                        continue;
                    }
                    let (lo_a, hi_a) = bisect_all_steps(1e-12, 1.0 - 1e-9, ok);
                    let (lo_b, hi_b) = bisect(1e-12, 1.0 - 1e-9, ok);
                    assert_eq!(
                        (lo_a.to_bits(), hi_a.to_bits()),
                        (lo_b.to_bits(), hi_b.to_bits()),
                        "mu: c = {c}, T = {t}, N = {n}"
                    );
                    assert_eq!(select_mu(c, t, n).map(f64::to_bits), Some(lo_a.to_bits()));
                    checked += 1;
                }
            }
        }
        assert!(checked > 60, "only {checked} bisected mus");
    }

    #[test]
    fn mu_none_when_capacity_below_guarantee_threshold() {
        // ln B(μc, (1−μ)/μ) = c(1−μ+ln μ); at μ = 1e-12 that is ≈ −26.6c,
        // and the target for T=12, N=38 is ln(1/468) ≈ −6.15, so c below
        // ≈ 0.231 admits no valid μ at all. The old code returned
        // Some(1e-12) here — a rounding probability with no guarantee.
        assert_eq!(select_mu(0.1, 12, 38), None);
        assert_eq!(select_mu(0.01, 12, 38), None);

        // Just above the threshold a μ exists again, and it satisfies
        // inequality (6) for real.
        let mu = select_mu(0.3, 12, 38).expect("c = 0.3 is above threshold");
        let target = 1.0 / (12.0 * 39.0);
        assert!(chernoff_bound(mu * 0.3, (1.0 - mu) / mu) < target);
    }
}
