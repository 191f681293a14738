//! Open-loop arrival schedules, the `mixed` workload's arrivals in
//! `perfbench`.
//!
//! A closed-loop client sends its next request only after the previous
//! response arrives, so when the server slows down the client slows down
//! with it and the recorded latencies silently exclude the queueing the
//! *intended* workload would have suffered — coordinated omission. An
//! open-loop generator fixes the arrival times up front from a seeded
//! random process, sends each request at its scheduled instant whether or
//! not earlier responses are back, and measures every latency from the
//! **intended** send time. This module provides the deterministic schedule
//! half of that design; the generator adds sockets and threads.
//!
//! Schedules are reproducible: the same `(process, rate, duration, seed)`
//! always yields the same arrival times, so a regression run offers
//! byte-identical load to its baseline.

use mosc_testutil::Rng64;

/// The inter-arrival distribution of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times (a Poisson process) — the bursty
    /// memoryless arrivals a shared service actually sees.
    Poisson,
}

/// Builds the arrival schedule: intended send times in seconds from the
/// run start, strictly within `[0, duration_s)`, sorted ascending.
///
/// For [`ArrivalProcess::Poisson`] the gaps are `-ln(1-u)/rate` draws from
/// a [`Rng64`] seeded with `seed` (inverse-CDF exponential sampling). The
/// expected schedule length is `rate_hz * duration_s`.
///
/// # Panics
/// When `rate_hz` or `duration_s` is not finite and positive.
#[must_use]
pub fn arrival_schedule(
    process: ArrivalProcess,
    rate_hz: f64,
    duration_s: f64,
    seed: u64,
) -> Vec<f64> {
    assert!(rate_hz.is_finite() && rate_hz > 0.0, "rate must be positive, got {rate_hz}");
    assert!(
        duration_s.is_finite() && duration_s > 0.0,
        "duration must be positive, got {duration_s}"
    );
    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = 0.0_f64;
    let mut out = Vec::with_capacity((rate_hz * duration_s) as usize + 1);
    loop {
        let gap = match process {
            ArrivalProcess::Poisson => {
                // Inverse-CDF exponential; next_f64 is in [0, 1) so the
                // argument of ln stays in (0, 1].
                -(1.0 - rng.next_f64()).ln() / rate_hz
            }
        };
        t += gap;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_seed() {
        let a = arrival_schedule(ArrivalProcess::Poisson, 200.0, 2.0, 42);
        let b = arrival_schedule(ArrivalProcess::Poisson, 200.0, 2.0, 42);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        let c = arrival_schedule(ArrivalProcess::Poisson, 200.0, 2.0, 43);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn poisson_schedule_matches_the_offered_rate() {
        let (rate, duration) = (500.0, 4.0);
        let s = arrival_schedule(ArrivalProcess::Poisson, rate, duration, 7);
        // Count ~ Poisson(2000); 5 sigma is ~±224.
        let expected = rate * duration;
        assert!(
            (s.len() as f64 - expected).abs() < 5.0 * expected.sqrt(),
            "got {} arrivals, expected about {expected}",
            s.len()
        );
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
        assert!(s.iter().all(|&t| (0.0..duration).contains(&t)));
    }
}
