//! Criterion micro-benchmarks of the hot algorithmic kernels (B1–B4 of
//! DESIGN.md): the violation-likelihood bound, the online statistics
//! update, the full per-sample adaptation step, and one coordinator
//! allocation round.
//!
//! The paper's efficiency argument rests on "violation likelihood
//! estimation with negligible overhead" (§III): these benches quantify
//! "negligible" — every kernel should sit in the nanosecond-to-
//! sub-microsecond range, orders of magnitude below any real sampling
//! operation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use volley_core::adaptation::PeriodReport;
use volley_core::allocation::{allowance_ladder, AllocationConfig, ErrorAllocator};
use volley_core::likelihood::sustainable_intervals;
use volley_core::{
    exceed_probability_bound, misdetection_bound, AdaptationConfig, AdaptiveSampler, Interval,
    OnlineStats,
};

fn bench_likelihood(c: &mut Criterion) {
    let mut group = c.benchmark_group("likelihood");
    group.bench_function("exceed_probability_bound", |b| {
        b.iter(|| {
            exceed_probability_bound(
                black_box(42.0),
                black_box(100.0),
                black_box(0.3),
                black_box(2.5),
                black_box(4),
            )
        })
    });
    for interval in [1u32, 4, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("misdetection_bound", interval),
            &interval,
            |b, &interval| {
                b.iter(|| {
                    misdetection_bound(
                        black_box(42.0),
                        black_box(100.0),
                        black_box(0.3),
                        black_box(2.5),
                        interval,
                    )
                })
            },
        );
    }
    group.bench_function("sustainable_intervals_8rungs", |b| {
        let limits = allowance_ladder(0.01).map(|e| 0.8 * e);
        let mut out = [0u32; 8];
        b.iter(|| {
            sustainable_intervals(
                black_box(42.0),
                black_box(100.0),
                black_box(0.3),
                black_box(2.5),
                black_box(32),
                &limits,
                &mut out,
            );
            out[7]
        })
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("online_stats_update", |b| {
        let mut stats = OnlineStats::new();
        let mut x = 0.0f64;
        b.iter(|| {
            x += 0.7;
            if x > 1000.0 {
                x = 0.0;
            }
            stats.update(black_box(x));
            stats.variance()
        })
    });
}

fn bench_adaptation(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptation");
    for (label, max_interval) in [("im8", 8u32), ("im32", 32)] {
        group.bench_function(format!("observe_{label}"), |b| {
            let config = AdaptationConfig::builder()
                .error_allowance(0.01)
                .max_interval(max_interval)
                .build()
                .expect("valid");
            let mut sampler = AdaptiveSampler::new(config, 100.0);
            let mut tick = 0u64;
            b.iter(|| {
                let value = 40.0 + ((tick % 17) as f64);
                let obs = sampler.observe(black_box(tick), black_box(value));
                tick = obs.next_sample_tick;
                obs.beta
            })
        });
    }
    group.finish();
}

fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation");
    for monitors in [10usize, 100] {
        group.bench_with_input(
            BenchmarkId::new("update_round", monitors),
            &monitors,
            |b, &monitors| {
                let mut allocator =
                    ErrorAllocator::new(AllocationConfig::default(), 0.01, monitors)
                        .expect("valid");
                let ladder = allowance_ladder(0.01);
                let reports: Vec<PeriodReport> = (0..monitors)
                    .map(|i| {
                        let difficulty = 10f64.powi(-((i % 6) as i32)) * 1e-2;
                        PeriodReport {
                            observations: 1000,
                            avg_beta_current: difficulty,
                            avg_beta_grown: (difficulty * 8.0).min(1.0),
                            avg_potential_reduction: 0.5,
                            interval: Interval::new_clamped(1 + (i as u32 % 4)),
                            at_max_interval: false,
                            cost_curve: ladder.iter().map(|e| (difficulty / e).min(1.0)).collect(),
                        }
                    })
                    .collect();
                b.iter(|| allocator.update(black_box(&reports), 0.2).expect("update"))
            },
        );
    }
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    use volley_core::window::{SlidingWindow, WindowedSampler};
    let mut group = c.benchmark_group("window");
    group.bench_function("sliding_window_push_w60", |b| {
        let mut window = SlidingWindow::new(60).expect("valid");
        let mut tick = 0u64;
        b.iter(|| {
            window.push(tick, black_box((tick % 97) as f64));
            tick += 1;
            window.mean()
        })
    });
    group.bench_function("windowed_sampler_observe", |b| {
        let config = AdaptationConfig::builder()
            .error_allowance(0.01)
            .build()
            .expect("valid");
        let mut sampler = WindowedSampler::new(config, 1000.0, 60).expect("valid");
        let mut tick = 0u64;
        b.iter(|| {
            let obs = sampler.observe(black_box(tick), black_box(40.0 + (tick % 17) as f64));
            tick = obs.next_sample_tick;
            obs.beta
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_likelihood,
    bench_stats,
    bench_adaptation,
    bench_allocation,
    bench_window
);
criterion_main!(benches);
