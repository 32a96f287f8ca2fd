//! Seeded request-arrival processes: [`TrafficModel`].
//!
//! A serving simulation starts from an **arrival trace**: the times at
//! which individual inference requests (one sample each) reach the server.
//! Traces are generated from a seed with the workspace's deterministic
//! `StdRng`, so the same model, request count and seed always produce the
//! byte-identical trace — which is what keeps [`crate::ServingReport`]s
//! reproducible across processes and thread counts.
//!
//! Time is measured in microseconds from the first arrival, which is always
//! at `0.0` (a trace starts when its first request lands).
//!
//! **Unit gaps.** The randomness of a trace does not depend on its rate.
//! Every random model consumes, in order, one seeded stream of rate-free
//! *unit* exponential gaps `E = -ln(1 - u)` (`u` uniform in `[0, 1)`), and
//! turns each into a gap of `E / rate` microseconds at the rate in force:
//! the request rate (Poisson), the burst rate (bursty) or the
//! instantaneous rate at the previous arrival (diurnal). Sampling a gap
//! directly, as `-(1 - u).ln() / rate`, evaluates the same two IEEE
//! operations in the same order (the negation is exact), so a trace built
//! from a stored draw is bit-identical to one drawn fresh. That is what
//! lets the capacity search, whose probes differ only in rate, draw its
//! unit gaps once ([`UnitGaps`]) and rescale them per probe.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain-separation constant folded into arrival-trace seeds so the
/// arrival stream never aliases the embedding-trace stream.
const ARRIVAL_SEED_SALT: u64 = 0xA441_7A1E_5EED_0001;

fn arrival_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ ARRIVAL_SEED_SALT)
}

/// One rate-free unit exponential gap (inverse-CDF sampling; `u` is
/// uniform in `[0, 1)` so `1 - u > 0` and the logarithm is finite). The
/// gap at `rate` requests per microsecond is this divided by `rate`.
fn unit_gap(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln()
}

/// The unit gaps of one arrival seed, drawn on first use and kept: every
/// trace of that seed built through [`TrafficModel::arrivals_with`] reads
/// the same gaps, whatever its rate, so only the first pays for the draw.
pub(crate) struct UnitGaps {
    rng: StdRng,
    drawn: Vec<f64>,
}

impl UnitGaps {
    /// An empty draw for arrival seed `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        UnitGaps {
            rng: arrival_rng(seed),
            drawn: Vec::new(),
        }
    }

    /// The `i`-th unit gap of the seed; gaps are asked for in order, so a
    /// gap not yet drawn is the next one.
    fn get(&mut self, i: usize) -> f64 {
        if i == self.drawn.len() {
            self.drawn.push(unit_gap(&mut self.rng));
        }
        self.drawn[i]
    }
}

/// A request-arrival process: how offered traffic is spread over time.
///
/// All four models are deterministic per seed. `Uniform` is the degenerate
/// reference (evenly spaced arrivals, no randomness at all); `Poisson` is
/// the classic memoryless open-loop load; `Bursty` clumps arrivals into
/// simultaneous bursts with Poisson gaps between bursts (same mean rate,
/// heavier queueing); `Diurnal` modulates a Poisson process with a
/// sinusoidal day/night rate curve between a trough and a peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Evenly spaced arrivals at exactly `qps` requests per second.
    Uniform {
        /// Offered load in requests per second.
        qps: f64,
    },
    /// Poisson arrivals (exponential inter-arrival gaps) at a mean rate of
    /// `qps` requests per second.
    Poisson {
        /// Mean offered load in requests per second.
        qps: f64,
    },
    /// Bursts of `burst_size` simultaneous requests; burst arrivals are
    /// Poisson at `qps / burst_size` bursts per second, so the mean request
    /// rate is still `qps`.
    Bursty {
        /// Mean offered load in requests per second.
        qps: f64,
        /// Requests arriving together in one burst.
        burst_size: u32,
    },
    /// A non-homogeneous Poisson process whose instantaneous rate follows a
    /// raised cosine between `trough_qps` (at time 0) and `peak_qps` (half
    /// a period later), with the given period in seconds.
    Diurnal {
        /// Rate at the busiest point of the cycle, in requests per second.
        peak_qps: f64,
        /// Rate at the quietest point of the cycle, in requests per second.
        trough_qps: f64,
        /// Length of one full cycle in seconds.
        period_s: f64,
    },
}

fn assert_rate(qps: f64, what: &str) {
    assert!(
        qps.is_finite() && qps > 0.0,
        "{what} must be finite and positive (got {qps})"
    );
}

impl TrafficModel {
    /// Evenly spaced arrivals at `qps` requests per second.
    ///
    /// # Panics
    /// Panics unless `qps` is finite and positive.
    pub fn uniform(qps: f64) -> Self {
        let model = TrafficModel::Uniform { qps };
        model.validate();
        model
    }

    /// Poisson arrivals at a mean of `qps` requests per second.
    ///
    /// # Panics
    /// Panics unless `qps` is finite and positive.
    pub fn poisson(qps: f64) -> Self {
        let model = TrafficModel::Poisson { qps };
        model.validate();
        model
    }

    /// Bursts of `burst_size` simultaneous requests at a mean request rate
    /// of `qps` per second.
    ///
    /// # Panics
    /// Panics unless `qps` is finite and positive and `burst_size` is
    /// non-zero.
    pub fn bursty(qps: f64, burst_size: u32) -> Self {
        let model = TrafficModel::Bursty { qps, burst_size };
        model.validate();
        model
    }

    /// A sinusoidal day/night cycle between `trough_qps` and `peak_qps`
    /// with the given period.
    ///
    /// # Panics
    /// Panics unless both rates are finite and positive, the trough does
    /// not exceed the peak, and the period is finite and positive.
    pub fn diurnal(peak_qps: f64, trough_qps: f64, period_s: f64) -> Self {
        let model = TrafficModel::Diurnal {
            peak_qps,
            trough_qps,
            period_s,
        };
        model.validate();
        model
    }

    /// Checks the rules the constructors enforce, for a model that may
    /// have been built directly from its variant.
    ///
    /// # Panics
    /// Panics where the variant's constructor would.
    pub fn validate(&self) {
        match *self {
            TrafficModel::Uniform { qps } | TrafficModel::Poisson { qps } => {
                assert_rate(qps, "the offered QPS");
            }
            TrafficModel::Bursty { qps, burst_size } => {
                assert_rate(qps, "the offered QPS");
                assert!(burst_size > 0, "a burst must contain at least one request");
            }
            TrafficModel::Diurnal {
                peak_qps,
                trough_qps,
                period_s,
            } => {
                assert_rate(peak_qps, "the peak QPS");
                assert_rate(trough_qps, "the trough QPS");
                assert!(
                    trough_qps <= peak_qps,
                    "the trough rate must not exceed the peak rate"
                );
                assert!(
                    period_s.is_finite() && period_s > 0.0,
                    "the period must be finite and positive"
                );
            }
        }
    }

    /// Stable machine-readable model name, used in serving reports.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficModel::Uniform { .. } => "uniform",
            TrafficModel::Poisson { .. } => "poisson",
            TrafficModel::Bursty { .. } => "bursty",
            TrafficModel::Diurnal { .. } => "diurnal",
        }
    }

    /// Mean offered load in requests per second.
    pub fn offered_qps(&self) -> f64 {
        match *self {
            TrafficModel::Uniform { qps }
            | TrafficModel::Poisson { qps }
            | TrafficModel::Bursty { qps, .. } => qps,
            TrafficModel::Diurnal {
                peak_qps,
                trough_qps,
                ..
            } => (peak_qps + trough_qps) / 2.0,
        }
    }

    /// The same traffic *shape* rescaled so that [`offered_qps`] equals
    /// `qps` — what the capacity search sweeps while holding burstiness and
    /// the day/night ratio fixed.
    ///
    /// [`offered_qps`]: TrafficModel::offered_qps
    ///
    /// # Panics
    /// Panics unless `qps` is finite and positive.
    pub fn at_qps(&self, qps: f64) -> Self {
        assert_rate(qps, "the target QPS");
        match *self {
            TrafficModel::Uniform { .. } => TrafficModel::Uniform { qps },
            TrafficModel::Poisson { .. } => TrafficModel::Poisson { qps },
            TrafficModel::Bursty { burst_size, .. } => TrafficModel::Bursty { qps, burst_size },
            TrafficModel::Diurnal {
                peak_qps,
                trough_qps,
                period_s,
            } => {
                let scale = qps / ((peak_qps + trough_qps) / 2.0);
                TrafficModel::Diurnal {
                    peak_qps: peak_qps * scale,
                    trough_qps: trough_qps * scale,
                    period_s,
                }
            }
        }
    }

    /// Generates the arrival trace: `requests` non-decreasing arrival times
    /// in microseconds, the first always `0.0`. Deterministic per
    /// `(model, requests, seed)`.
    ///
    /// # Panics
    /// Panics if `requests` is zero.
    pub fn arrival_times_us(&self, requests: u32, seed: u64) -> Vec<f64> {
        let mut rng = arrival_rng(seed);
        self.arrivals_from(requests, || unit_gap(&mut rng))
    }

    /// The trace [`arrival_times_us`](TrafficModel::arrival_times_us)
    /// generates for `requests` and the seed of `gaps`, bit for bit, built
    /// from the gaps already drawn (and drawing the rest).
    ///
    /// # Panics
    /// Panics if `requests` is zero.
    pub(crate) fn arrivals_with(&self, requests: u32, gaps: &mut UnitGaps) -> Vec<f64> {
        let mut used = 0;
        self.arrivals_from(requests, || {
            let gap = gaps.get(used);
            used += 1;
            gap
        })
    }

    /// The one generation loop: `requests` arrival times built from the
    /// unit gaps `unit_gap` yields, consumed in order.
    fn arrivals_from(&self, requests: u32, mut unit_gap: impl FnMut() -> f64) -> Vec<f64> {
        assert!(requests > 0, "an arrival trace needs at least one request");
        let mut times = Vec::with_capacity(requests as usize);
        match *self {
            TrafficModel::Uniform { qps } => {
                let gap = 1e6 / qps;
                for i in 0..requests {
                    times.push(i as f64 * gap);
                }
            }
            TrafficModel::Poisson { qps } => {
                let rate = qps / 1e6;
                let mut t = 0.0;
                for i in 0..requests {
                    if i > 0 {
                        t += unit_gap() / rate;
                    }
                    times.push(t);
                }
            }
            TrafficModel::Bursty { qps, burst_size } => {
                let burst_rate = qps / burst_size as f64 / 1e6;
                let mut t = 0.0;
                let mut emitted = 0u32;
                while emitted < requests {
                    if emitted > 0 {
                        t += unit_gap() / burst_rate;
                    }
                    for _ in 0..burst_size.min(requests - emitted) {
                        times.push(t);
                        emitted += 1;
                    }
                }
            }
            TrafficModel::Diurnal {
                peak_qps,
                trough_qps,
                period_s,
            } => {
                // Piecewise approximation of the non-homogeneous process:
                // each gap is exponential at the instantaneous rate of the
                // previous arrival. λ(0) = trough; λ(period/2) = peak.
                let period_us = period_s * 1e6;
                let mut t = 0.0;
                for i in 0..requests {
                    if i > 0 {
                        let phase = (t / period_us) * std::f64::consts::TAU;
                        let lambda_qps =
                            trough_qps + (peak_qps - trough_qps) * (1.0 - phase.cos()) / 2.0;
                        t += unit_gap() / (lambda_qps / 1e6);
                    }
                    times.push(t);
                }
            }
        }
        times
    }
}

impl std::fmt::Display for TrafficModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TrafficModel::Uniform { qps } => write!(f, "uniform({qps} qps)"),
            TrafficModel::Poisson { qps } => write!(f, "poisson({qps} qps)"),
            TrafficModel::Bursty { qps, burst_size } => {
                write!(f, "bursty({qps} qps, bursts of {burst_size})")
            }
            TrafficModel::Diurnal {
                peak_qps,
                trough_qps,
                period_s,
            } => write!(
                f,
                "diurnal({trough_qps}..{peak_qps} qps, {period_s}s period)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_trace(times: &[f64], requests: u32) {
        assert_eq!(times.len(), requests as usize);
        assert_eq!(times[0], 0.0, "the first request arrives at time zero");
        for pair in times.windows(2) {
            assert!(pair[1] >= pair[0], "arrival times must be non-decreasing");
            assert!(pair[1].is_finite());
        }
    }

    #[test]
    fn all_models_produce_valid_deterministic_traces() {
        let models = [
            TrafficModel::uniform(1_000.0),
            TrafficModel::poisson(1_000.0),
            TrafficModel::bursty(1_000.0, 8),
            TrafficModel::diurnal(2_000.0, 200.0, 60.0),
        ];
        for model in models {
            let a = model.arrival_times_us(257, 42);
            assert_valid_trace(&a, 257);
            assert_eq!(
                a,
                model.arrival_times_us(257, 42),
                "{model} must be deterministic"
            );
            if model.name() != "uniform" {
                assert_ne!(
                    a,
                    model.arrival_times_us(257, 43),
                    "{model} must depend on the seed"
                );
            }
        }
        // Uniform is the exception: it has no randomness at all.
        let u = TrafficModel::uniform(500.0);
        assert_eq!(u.arrival_times_us(10, 1), u.arrival_times_us(10, 2));
    }

    #[test]
    fn traces_built_from_one_shared_draw_match_fresh_traces() {
        let bits = |times: &[f64]| times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        // Bursts of 7 do not divide 1,000 requests: the last burst is short.
        for (model, gaps_per_1000) in [
            (TrafficModel::uniform(1_000.0), 0),
            (TrafficModel::poisson(1_000.0), 999),
            (TrafficModel::bursty(1_000.0, 7), 142),
            (TrafficModel::diurnal(2_000.0, 200.0, 0.5), 999),
        ] {
            for seed in [1, 42] {
                let mut gaps = UnitGaps::new(seed);
                // A short trace first, so the longer ones extend the draw,
                // then rates from far below to far above the model's own.
                for (requests, factor) in [
                    (100, 1.0),
                    (1_000, 0.5),
                    (1_000, 3.0),
                    (1, 7.0),
                    (1_000, 1e-3),
                    (1_000, 1e9),
                ] {
                    let scaled = model.at_qps(factor * model.offered_qps());
                    assert_eq!(
                        bits(&scaled.arrivals_with(requests, &mut gaps)),
                        bits(&scaled.arrival_times_us(requests, seed)),
                        "{scaled}, {requests} requests, seed {seed}"
                    );
                }
                assert_eq!(
                    gaps.drawn.len(),
                    gaps_per_1000,
                    "{model} draws each gap once"
                );
            }
        }
    }

    #[test]
    fn uniform_spacing_matches_the_rate() {
        let times = TrafficModel::uniform(1e6 / 250.0).arrival_times_us(5, 0);
        assert_eq!(times, vec![0.0, 250.0, 500.0, 750.0, 1000.0]);
    }

    #[test]
    fn poisson_mean_rate_is_close_to_nominal() {
        let qps = 10_000.0;
        let n = 20_000u32;
        let times = TrafficModel::poisson(qps).arrival_times_us(n, 7);
        let span_s = times[times.len() - 1] / 1e6;
        let achieved = (n - 1) as f64 / span_s;
        assert!(
            (achieved / qps - 1.0).abs() < 0.05,
            "poisson rate {achieved:.0} qps should be within 5% of {qps:.0}"
        );
    }

    #[test]
    fn bursts_arrive_together() {
        let times = TrafficModel::bursty(1_000.0, 4).arrival_times_us(12, 9);
        for burst in times.chunks(4) {
            assert!(burst.iter().all(|&t| t == burst[0]));
        }
        assert!(times[4] > times[0]);
    }

    #[test]
    fn diurnal_trough_runs_slower_than_peak() {
        // With a long period relative to the trace, arrivals near t=0 see
        // the trough rate; rescaling to the same mean keeps the shape.
        let model = TrafficModel::diurnal(10_000.0, 100.0, 3600.0);
        assert_eq!(model.offered_qps(), 5050.0);
        let rescaled = model.at_qps(1010.0);
        match rescaled {
            TrafficModel::Diurnal {
                peak_qps,
                trough_qps,
                ..
            } => {
                assert!((peak_qps / trough_qps - 100.0).abs() < 1e-9);
                assert!((rescaled.offered_qps() - 1010.0).abs() < 1e-9);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn at_qps_preserves_the_model_shape() {
        for model in [
            TrafficModel::uniform(10.0),
            TrafficModel::poisson(10.0),
            TrafficModel::bursty(10.0, 16),
        ] {
            let scaled = model.at_qps(123.0);
            assert_eq!(scaled.name(), model.name());
            assert_eq!(scaled.offered_qps(), 123.0);
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_qps_is_rejected() {
        let _ = TrafficModel::poisson(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_traces_are_rejected() {
        let _ = TrafficModel::uniform(1.0).arrival_times_us(0, 0);
    }
}
