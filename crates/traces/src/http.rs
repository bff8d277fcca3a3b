//! Web-application access workloads (the application-level monitoring
//! workload of §V-A).
//!
//! The paper replays >1 billion HTTP requests from the WorldCup'98 trace
//! across 30 web servers; each application-level task monitors "the access
//! rate of a certain object, e.g. a video or a web page, on a certain VM"
//! at a 1-second default interval. The cost savings of Figure 5(c) come
//! from the *bursty* nature of accesses — diurnal load with flash crowds —
//! which lets Volley coarsen intervals during off-peak periods.
//!
//! This generator reproduces exactly those dynamics: object popularity is
//! Zipf-distributed (heavily skewed, as in real web traces), the aggregate
//! request rate follows a diurnal cycle, and *flash crowds* — sudden
//! popularity explosions of a single object with fast ramp and slow decay
//! — arrive at random times.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson};
use serde::{Deserialize, Serialize};

use crate::diurnal::DiurnalPattern;
use crate::zipf::Zipf;

/// Configuration of the HTTP workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HttpWorkloadConfig {
    seed: u64,
    objects: usize,
    zipf_exponent: f64,
    requests_per_tick: f64,
    diurnal: DiurnalPattern,
    flash_crowd_probability: f64,
    flash_crowd_magnitude: f64,
    flash_crowd_duration: u64,
}

impl HttpWorkloadConfig {
    /// Starts building a configuration.
    pub fn builder() -> HttpWorkloadConfigBuilder {
        HttpWorkloadConfigBuilder {
            config: HttpWorkloadConfig::default(),
        }
    }

    /// Number of distinct objects served.
    pub fn objects(&self) -> usize {
        self.objects
    }

    /// Generates `ticks` of per-object access rates.
    pub fn generate(&self, ticks: usize) -> HttpWorkload {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let popularity = Zipf::new(self.objects, self.zipf_exponent)
            .expect("objects >= 1 and exponent >= 0 by construction");
        let mut rates = vec![Vec::with_capacity(ticks); self.objects];
        // Active flash crowds: (object, remaining_ticks, current_boost).
        let mut crowds: Vec<(usize, u64, f64)> = Vec::new();
        for tick in 0..ticks as u64 {
            // Maybe start a new flash crowd, hitting a popularity-biased
            // object (popular objects are likelier to go viral).
            if rng.gen::<f64>() < self.flash_crowd_probability {
                let object = popularity.sample(&mut rng) - 1;
                crowds.push((
                    object,
                    self.flash_crowd_duration.max(1),
                    self.flash_crowd_magnitude,
                ));
            }
            let load = self.requests_per_tick * self.diurnal.factor(tick);
            for (object, rate) in rates.iter_mut().enumerate() {
                let mut lambda = load * popularity.weight(object + 1);
                for &(co, _, boost) in &crowds {
                    if co == object {
                        lambda += boost;
                    }
                }
                rate.push(sample_poisson(&mut rng, lambda));
            }
            // Flash crowds decay geometrically and expire.
            for crowd in &mut crowds {
                crowd.1 = crowd.1.saturating_sub(1);
                crowd.2 *= 0.9;
            }
            crowds.retain(|c| c.1 > 0 && c.2 > 1.0);
        }
        HttpWorkload { rates }
    }
}

impl Default for HttpWorkloadConfig {
    /// Defaults: seed 0, 20 objects, Zipf exponent 1.0, 500 requests per
    /// second, 24 h diurnal cycle (86400 one-second ticks) with ±60%
    /// swing, flash crowds starting with probability 5·10⁻⁴ per tick,
    /// peaking at 800 extra requests/s and lasting 600 ticks.
    fn default() -> Self {
        HttpWorkloadConfig {
            seed: 0,
            objects: 20,
            zipf_exponent: 1.0,
            requests_per_tick: 500.0,
            diurnal: DiurnalPattern::new(86_400, 0.6),
            flash_crowd_probability: 5e-4,
            flash_crowd_magnitude: 800.0,
            flash_crowd_duration: 600,
        }
    }
}

/// Builder for [`HttpWorkloadConfig`].
#[derive(Debug, Clone)]
pub struct HttpWorkloadConfigBuilder {
    config: HttpWorkloadConfig,
}

impl HttpWorkloadConfigBuilder {
    /// Sets the random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of objects (default 20, minimum 1).
    pub fn objects(mut self, n: usize) -> Self {
        self.config.objects = n.max(1);
        self
    }

    /// Sets the Zipf popularity exponent (default 1.0; negatives clamp to
    /// 0 = uniform).
    pub fn zipf_exponent(mut self, s: f64) -> Self {
        self.config.zipf_exponent = if s.is_finite() && s >= 0.0 { s } else { 0.0 };
        self
    }

    /// Sets the aggregate mean requests per tick (default 500).
    pub fn requests_per_tick(mut self, r: f64) -> Self {
        self.config.requests_per_tick = r.max(0.0);
        self
    }

    /// Sets the diurnal cycle (default 24 h of 1-second ticks, ±60%).
    pub fn diurnal(mut self, pattern: DiurnalPattern) -> Self {
        self.config.diurnal = pattern;
        self
    }

    /// Sets the per-tick probability of a flash crowd starting
    /// (default 5·10⁻⁴). Clamped to `[0, 1]`.
    pub fn flash_crowd_probability(mut self, p: f64) -> Self {
        self.config.flash_crowd_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the initial extra request rate of a flash crowd (default 800).
    pub fn flash_crowd_magnitude(mut self, m: f64) -> Self {
        self.config.flash_crowd_magnitude = m.max(0.0);
        self
    }

    /// Sets the maximum flash crowd duration in ticks (default 600).
    pub fn flash_crowd_duration(mut self, d: u64) -> Self {
        self.config.flash_crowd_duration = d;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> HttpWorkloadConfig {
        self.config
    }
}

/// Generated per-object access-rate series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HttpWorkload {
    /// `rates[object][tick]` — requests per tick.
    rates: Vec<Vec<f64>>,
}

impl HttpWorkload {
    /// Number of objects.
    pub fn objects(&self) -> usize {
        self.rates.len()
    }

    /// Access-rate series of one object.
    ///
    /// # Panics
    ///
    /// Panics when `object` is out of range.
    pub fn object_rate(&self, object: usize) -> &[f64] {
        &self.rates[object]
    }
}

fn sample_poisson(rng: &mut StdRng, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    match Poisson::new(lambda) {
        Ok(dist) => dist.sample(rng),
        Err(_) => lambda,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::mean;

    fn small_config() -> HttpWorkloadConfig {
        HttpWorkloadConfig::builder()
            .seed(9)
            .objects(5)
            .requests_per_tick(200.0)
            .diurnal(DiurnalPattern::new(1000, 0.5))
            .flash_crowd_probability(0.0)
            .build()
    }

    #[test]
    fn deterministic_generation() {
        let a = small_config().generate(100);
        let b = small_config().generate(100);
        assert_eq!(a, b);
    }

    #[test]
    fn popular_objects_get_more_traffic() {
        let w = small_config().generate(2000);
        let first = mean(w.object_rate(0));
        let last = mean(w.object_rate(4));
        assert!(
            first > last * 2.0,
            "rank-1 object ({first}) should dominate rank-5 ({last})"
        );
    }

    #[test]
    fn uniform_popularity_balances_traffic() {
        let config = HttpWorkloadConfig::builder()
            .seed(3)
            .objects(4)
            .zipf_exponent(0.0)
            .requests_per_tick(400.0)
            .flash_crowd_probability(0.0)
            .diurnal(DiurnalPattern::flat())
            .build();
        let w = config.generate(3000);
        let means: Vec<f64> = (0..4).map(|o| mean(w.object_rate(o))).collect();
        for m in &means {
            assert!((m - 100.0).abs() < 10.0, "mean {m} should be near 100");
        }
    }

    #[test]
    fn flash_crowds_create_bursts() {
        let config = HttpWorkloadConfig::builder()
            .seed(5)
            .objects(3)
            .requests_per_tick(50.0)
            .diurnal(DiurnalPattern::flat())
            .flash_crowd_probability(0.01)
            .flash_crowd_magnitude(5000.0)
            .flash_crowd_duration(50)
            .build();
        let w = config.generate(5000);
        // Some object must exhibit a burst far above its typical level.
        let burst_found = (0..3).any(|o| {
            let series = w.object_rate(o);
            let m = mean(series);
            series.iter().any(|&v| v > m * 5.0)
        });
        assert!(burst_found, "flash crowds should create visible bursts");
    }

    #[test]
    fn diurnal_shapes_aggregate_load() {
        let w = small_config().generate(1000);
        let total: Vec<f64> = (0..1000)
            .map(|t| (0..w.objects()).map(|o| w.object_rate(o)[t]).sum())
            .collect();
        let day = mean(&total[200..300]); // sine peak region
        let night = mean(&total[700..800]); // sine trough region
        assert!(day > night * 1.5, "day {day} vs night {night}");
    }

    #[test]
    fn flat_workload_counts_are_poisson_dispersed() {
        // With a flat diurnal and no flash crowds, per-object counts are
        // Poisson draws: the variance-to-mean ratio should be near 1.
        let config = HttpWorkloadConfig::builder()
            .seed(31)
            .objects(2)
            .zipf_exponent(0.0)
            .requests_per_tick(400.0)
            .diurnal(DiurnalPattern::flat())
            .flash_crowd_probability(0.0)
            .build();
        let w = config.generate(20_000);
        for o in 0..2 {
            let series = w.object_rate(o);
            let m = mean(series);
            let var = series.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / series.len() as f64;
            let dispersion = var / m;
            assert!(
                (dispersion - 1.0).abs() < 0.1,
                "object {o}: dispersion {dispersion:.3} should be near 1 (Poisson)"
            );
        }
    }

    #[test]
    fn zero_rate_workload_is_silent() {
        let config = HttpWorkloadConfig::builder()
            .requests_per_tick(0.0)
            .flash_crowd_probability(0.0)
            .build();
        let w = config.generate(20);
        assert!((0..w.objects()).all(|o| w.object_rate(o).iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn builder_clamps_inputs() {
        let config = HttpWorkloadConfig::builder()
            .objects(0)
            .zipf_exponent(f64::NAN)
            .flash_crowd_probability(9.0)
            .build();
        assert_eq!(config.objects(), 1);
        assert_eq!(config.zipf_exponent, 0.0);
        assert_eq!(config.flash_crowd_probability, 1.0);
    }

    #[test]
    #[should_panic]
    fn object_rate_out_of_range_panics() {
        let w = small_config().generate(10);
        let _ = w.object_rate(99);
    }
}
