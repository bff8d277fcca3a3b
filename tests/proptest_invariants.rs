//! Property-based tests of the core invariants, spanning crates.

use proptest::prelude::*;

use volley::core::accuracy::evaluate_policy;
use volley::core::allocation::{
    AllocationConfig, AllocationStrategy, AllowanceCostMode, ErrorAllocator, YieldMode,
};
use volley::core::stats::OnlineStats;
use volley::{
    exceed_probability_bound, misdetection_bound, AdaptationConfig, AdaptiveSampler, Interval,
    PeriodicSampler,
};
use volley_sim::{EventQueue, SimTime};
use volley_traces::timeseries::{percentile, SeriesSummary};
use volley_traces::zipf::zipf_weights;

proptest! {
    /// Welford-style online statistics match the two-pass definition.
    #[test]
    fn online_stats_match_two_pass(data in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut stats = OnlineStats::with_restart_after(u32::MAX);
        for &x in &data {
            stats.update(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let scale = var.abs().max(1.0);
        prop_assert!((stats.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((stats.variance() - var).abs() < 1e-6 * scale);
    }

    /// The violation-likelihood bound is a probability and is monotone in
    /// the number of steps when the drift is non-negative.
    #[test]
    fn exceed_bound_is_probability(
        value in -1e6f64..1e6,
        headroom in 0.0f64..1e6,
        mu in 0.0f64..1e3,
        sigma in 0.0f64..1e3,
        steps in 1u32..64,
    ) {
        let threshold = value + headroom;
        let p = exceed_probability_bound(value, threshold, mu, sigma, steps);
        prop_assert!((0.0..=1.0).contains(&p));
        let p_next = exceed_probability_bound(value, threshold, mu, sigma, steps + 1);
        prop_assert!(p_next >= p - 1e-12, "non-negative drift: later steps riskier");
    }

    /// β(I) is monotone non-decreasing in the interval and bounded by 1.
    #[test]
    fn misdetection_bound_monotone(
        value in -1e3f64..1e3,
        headroom in -10.0f64..1e4,
        mu in -10.0f64..10.0,
        sigma in 0.0f64..100.0,
    ) {
        let threshold = value + headroom;
        let mut prev = 0.0;
        for interval in 1..=24u32 {
            let b = misdetection_bound(value, threshold, mu, sigma, interval);
            prop_assert!((0.0..=1.0).contains(&b));
            prop_assert!(b >= prev - 1e-12);
            prev = b;
        }
    }

    /// The adaptive sampler's interval always stays within [1, I_m], and
    /// its schedule advances strictly.
    #[test]
    fn sampler_interval_bounded(
        values in prop::collection::vec(0.0f64..1000.0, 10..400),
        err in 0.0f64..0.2,
        max_interval in 1u32..32,
        threshold in 1.0f64..2000.0,
    ) {
        let config = AdaptationConfig::builder()
            .error_allowance(err)
            .max_interval(max_interval)
            .patience(3)
            .warmup_samples(2)
            .build()
            .expect("valid");
        let mut sampler = AdaptiveSampler::new(config, threshold);
        let mut tick = 0u64;
        for &v in &values {
            let obs = sampler.observe(tick, v);
            prop_assert!(obs.next_interval.get() >= 1);
            prop_assert!(obs.next_interval <= config.max_interval());
            prop_assert!(obs.next_sample_tick > tick);
            tick = obs.next_sample_tick;
        }
    }

    /// A periodic sampler at the default interval never misses and the
    /// adaptive sampler never costs more than periodic.
    #[test]
    fn adaptive_never_costs_more_than_periodic(
        values in prop::collection::vec(0.0f64..100.0, 50..500),
        err in 0.0f64..0.1,
    ) {
        let threshold = 120.0; // never violated: pure cost comparison
        let config = AdaptationConfig::builder()
            .error_allowance(err)
            .max_interval(8)
            .patience(3)
            .build()
            .expect("valid");
        let mut adaptive = AdaptiveSampler::new(config, threshold);
        let mut periodic = PeriodicSampler::new(Interval::DEFAULT, threshold);
        let a = evaluate_policy(&mut adaptive, &values);
        let p = evaluate_policy(&mut periodic, &values);
        prop_assert!(a.sampling_ops <= p.sampling_ops);
        prop_assert_eq!(p.misdetection_rate(), 0.0);
    }

    /// Every strategy, under every yield and allowance-cost formula, keeps
    /// `Σ err_i ≤ err` and each allowance at or above the floor
    /// `err · min(min_fraction, 1/n)` — also past 100 monitors, where
    /// `n` uncapped `err/100` floors alone would exceed the budget.
    #[test]
    fn allocator_conserves_budget(
        global_err in 0.001f64..0.2,
        monitors in 2usize..301,
        rounds in 1usize..10,
        difficulty_exp in prop::collection::vec(-6.0f64..0.0, 2..12),
    ) {
        let reports: Vec<_> = (0..monitors)
            .map(|i| {
                let difficulty = 10f64.powf(difficulty_exp[i % difficulty_exp.len()]);
                volley::core::adaptation::PeriodReport {
                    observations: 100,
                    avg_beta_current: difficulty,
                    avg_beta_grown: (difficulty * 8.0).min(1.0),
                    avg_potential_reduction: 0.5,
                    interval: Interval::new_clamped(1 + (i as u32 % 4)),
                    at_max_interval: false,
                }
            })
            .collect();
        for strategy in [AllocationStrategy::Iterative, AllocationStrategy::Proportional] {
            for yield_mode in [YieldMode::PaperTotal, YieldMode::Marginal] {
                for cost_mode in [AllowanceCostMode::Grown, AllowanceCostMode::Current] {
                    let config = AllocationConfig {
                        strategy,
                        yield_mode,
                        cost_mode,
                        ..AllocationConfig::default()
                    };
                    let mut allocator =
                        ErrorAllocator::new(config, global_err, monitors).expect("valid");
                    let floor = global_err * config.min_fraction.min(1.0 / monitors as f64);
                    for _ in 0..rounds {
                        allocator.update(&reports, 0.2).expect("update succeeds");
                        let sum: f64 = allocator.allowances().iter().sum();
                        prop_assert!(
                            sum <= global_err + 1e-9,
                            "{config:?}: sum {sum} budget {global_err}"
                        );
                        for &a in allocator.allowances() {
                            prop_assert!(a >= floor - 1e-12, "{config:?}: {a} below floor {floor}");
                        }
                    }
                }
            }
        }
    }

    /// The event queue delivers every event in timestamp order with FIFO
    /// tie-breaking.
    #[test]
    fn event_queue_orders_events(times in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut queue = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_micros(t), seq);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut delivered = 0usize;
        while let Some((t, seq)) = queue.pop() {
            prop_assert!(t >= last_time);
            if t > last_time {
                seen_at_time.clear();
            }
            // FIFO among equal timestamps: sequence numbers increase.
            if let Some(&prev) = seen_at_time.last() {
                prop_assert!(seq > prev);
            }
            seen_at_time.push(seq);
            last_time = t;
            delivered += 1;
        }
        prop_assert_eq!(delivered, times.len());
    }

    /// Percentiles are bounded by the extremes and monotone in p.
    #[test]
    fn percentile_bounds_and_monotonicity(
        mut values in prop::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let q = percentile(&values, p);
            prop_assert!(q >= values[0] && q <= *values.last().expect("non-empty"));
            prop_assert!(q >= prev);
            prev = q;
        }
        let summary = SeriesSummary::compute(&values).expect("non-empty");
        prop_assert!(summary.min <= summary.q1);
        prop_assert!(summary.q1 <= summary.median);
        prop_assert!(summary.median <= summary.q3);
        prop_assert!(summary.q3 <= summary.max);
    }

    /// Zipf weights are a probability distribution, non-increasing in
    /// rank, and increasingly concentrated with skew.
    #[test]
    fn zipf_weights_well_formed(n in 1usize..200, s in 0.0f64..3.0) {
        let w = zipf_weights(n, s);
        prop_assert_eq!(w.len(), n);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for pair in w.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-15);
        }
        if n > 1 {
            let steeper = zipf_weights(n, s + 0.5);
            prop_assert!(steeper[0] >= w[0] - 1e-15);
        }
    }

    /// The sliding-window mean always matches a naive recomputation,
    /// including under sparse (gappy) tick sequences.
    #[test]
    fn sliding_window_matches_naive(
        steps in prop::collection::vec((1u64..20, -1e3f64..1e3), 1..150),
        width in 1u64..40,
    ) {
        use volley::core::window::SlidingWindow;
        let mut window = SlidingWindow::new(width).expect("valid width");
        let mut history: Vec<(u64, f64)> = Vec::new();
        let mut tick = 0u64;
        for (gap, value) in steps {
            tick += gap;
            window.push(tick, value);
            history.push((tick, value));
            let cutoff = tick.saturating_sub(width - 1);
            let live: Vec<f64> =
                history.iter().filter(|(t, _)| *t >= cutoff).map(|(_, v)| *v).collect();
            let sum: f64 = live.iter().sum();
            prop_assert!((window.mean() - sum / live.len() as f64).abs() < 1e-9);
            prop_assert_eq!(window.len(), live.len());
        }
    }

    /// Ground-truth selectivity of a threshold chosen at selectivity `k`
    /// is at most `k` (exceedances are strict).
    #[test]
    fn selectivity_threshold_bounds_exceedances(
        values in prop::collection::vec(-1e3f64..1e3, 10..500),
        k in 0.5f64..50.0,
    ) {
        let threshold = volley::selectivity_threshold(&values, k).expect("valid");
        let exceed = values.iter().filter(|v| **v > threshold).count() as f64;
        let frac = exceed / values.len() as f64;
        // Interpolated percentiles keep the exceedance fraction within
        // one order-statistic step of k%.
        prop_assert!(frac <= k / 100.0 + 1.0 / values.len() as f64 + 1e-12);
    }
}
