//! Analytic M/M/c (Erlang) queueing formulas.
//!
//! These are the steady-state predictions the DRS baseline optimises against
//! ([`crate::DrsAllocator`]) and the reference values the simulator's
//! differential tests (`crates/microsim/tests/differential.rs`) cross-check
//! the emulator against: a single-task workflow under
//! Poisson arrivals with `c` consumers is exactly an M/G/c queue, and with
//! the emulator's default log-normal service times at coefficient of
//! variation 1 the Allen–Cunneen approximation collapses to plain Erlang-C.
//!
//! All rates are in requests per second; all times in seconds.
//!
//! # Examples
//!
//! ```
//! use baselines::queueing;
//!
//! // λ = 2 req/s, μ = 1 req/s per server, c = 3 servers.
//! let w = queueing::mmc_mean_response(2.0, 1.0, 3);
//! assert!((w - 1.444).abs() < 1e-3);
//! let l = queueing::mmc_mean_in_system(2.0, 1.0, 3);
//! // Little's law: L = λ·W.
//! assert!((l - 2.0 * w).abs() < 1e-9);
//! ```

/// Server utilisation `ρ = λ / (c·μ)`, or infinity when `c = 0`.
#[must_use]
pub(crate) fn utilisation(lambda: f64, mu: f64, c: usize) -> f64 {
    if c == 0 {
        return f64::INFINITY;
    }
    lambda / (c as f64 * mu)
}

/// Erlang-B blocking probability `B(c, a)` for offered load `a = λ/μ`
/// Erlangs on `c` servers, via the numerically stable recursion
/// `B(0) = 1`, `B(k) = a·B(k−1) / (k + a·B(k−1))`.
#[must_use]
pub(crate) fn erlang_b(offered_load: f64, c: usize) -> f64 {
    let a = offered_load;
    let mut b = 1.0;
    for k in 1..=c {
        b = a * b / (k as f64 + a * b);
    }
    b
}

/// Erlang-C probability that an arrival must queue,
/// `C = B / (1 − ρ·(1 − B))`. Returns 1.0 for an unstable queue (`ρ ≥ 1`).
#[must_use]
pub(crate) fn erlang_c(lambda: f64, mu: f64, c: usize) -> f64 {
    let rho = utilisation(lambda, mu, c);
    if rho >= 1.0 {
        return 1.0;
    }
    let b = erlang_b(lambda / mu, c);
    b / (1.0 - rho * (1.0 - b))
}

/// Mean time spent waiting in queue, `W_q = C / (c·μ − λ)`. Zero when
/// `λ ≤ 0`; infinite when the queue is unstable.
#[must_use]
pub(crate) fn mmc_mean_wait(lambda: f64, mu: f64, c: usize) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    if utilisation(lambda, mu, c) >= 1.0 {
        return f64::INFINITY;
    }
    erlang_c(lambda, mu, c) / (c as f64 * mu - lambda)
}

/// Mean response (sojourn) time `W = W_q + 1/μ`.
#[must_use]
pub fn mmc_mean_response(lambda: f64, mu: f64, c: usize) -> f64 {
    mmc_mean_wait(lambda, mu, c) + 1.0 / mu
}

/// Mean queue length (excluding in-service requests), `L_q = λ·W_q`.
#[must_use]
pub(crate) fn mmc_mean_queue_len(lambda: f64, mu: f64, c: usize) -> f64 {
    lambda * mmc_mean_wait(lambda, mu, c)
}

/// Mean number of requests in the system (queued plus in service),
/// `L = L_q + a` where `a = λ/μ` is the offered load.
#[must_use]
pub fn mmc_mean_in_system(lambda: f64, mu: f64, c: usize) -> f64 {
    mmc_mean_queue_len(lambda, mu, c) + lambda / mu
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_b_known_values() {
        // B(1, a) = a / (1 + a).
        assert!((erlang_b(0.5, 1) - 1.0 / 3.0).abs() < 1e-12);
        // B(0, a) = 1: no servers block everything.
        assert!((erlang_b(2.0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_mm1_is_rho() {
        // For c = 1 the probability of queueing is the utilisation.
        assert!((erlang_c(0.7, 1.0, 1) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn worked_example_lambda2_mu1_c3() {
        // Textbook M/M/3 with λ = 2, μ = 1: ρ = 2/3, C ≈ 0.44444,
        // Wq ≈ 0.44444, W ≈ 1.44444, Lq ≈ 0.88889, L ≈ 2.88889.
        let (l, m, c) = (2.0, 1.0, 3);
        assert!((erlang_c(l, m, c) - 4.0 / 9.0).abs() < 1e-9);
        assert!((mmc_mean_wait(l, m, c) - 4.0 / 9.0).abs() < 1e-9);
        assert!((mmc_mean_response(l, m, c) - 13.0 / 9.0).abs() < 1e-9);
        assert!((mmc_mean_queue_len(l, m, c) - 8.0 / 9.0).abs() < 1e-9);
        assert!((mmc_mean_in_system(l, m, c) - 26.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn littles_law_holds() {
        for &(l, m, c) in &[(0.5, 1.0, 1), (2.0, 1.0, 3), (7.5, 2.0, 5)] {
            let lhs = mmc_mean_in_system(l, m, c);
            let rhs = l * mmc_mean_response(l, m, c);
            assert!((lhs - rhs).abs() < 1e-9, "λ={l} μ={m} c={c}");
        }
    }

    #[test]
    fn unstable_queue_diverges() {
        assert!(mmc_mean_wait(2.0, 1.0, 2).is_infinite());
        assert!(mmc_mean_response(3.0, 1.0, 0).is_infinite());
        assert!((erlang_c(2.0, 1.0, 2) - 1.0).abs() < 1e-12);
    }
}
