//! Order statistics and the regression-bound arithmetic shared by the
//! runner (`median over rounds`) and `compare` (medians + quartiles
//! against the bounds in `BENCHMARK.json`).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the driver computes its spreads with that function, so
/// `compare` must agree with it to the last digit. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // Python's `delta = i*(m+1) - j*n` goes negative or past `n`
        // at the clamped ends, where it extrapolates from the two
        // outermost points; signed arithmetic keeps that behaviour.
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (the driver's
/// "spread"); 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// One timed round: its wall time and the CPU-seconds the hypervisor
/// stole from the guest while it ran (`steal` in `/proc/stat`, summed
/// over CPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTime {
    pub wall_s: f64,
    pub steal_s: f64,
}

/// Steal differences below this (two `/proc/stat` jiffies) carry no
/// slope information.
const MIN_STEAL_DELTA_S: f64 = 0.02;
/// A stolen CPU-second cannot delay a round by less than nothing, and —
/// lock-step threads stall on each other — by little more than one
/// second; the fitted slope is held to this range.
const STEAL_SLOPE_RANGE: (f64, f64) = (0.0, 2.0);

/// Theil–Sen slope of wall time against steal over the rounds of one
/// run: the median of pairwise slopes, clamped to
/// [`STEAL_SLOPE_RANGE`]; 0 when no pair of rounds differs enough in
/// steal to say anything.
pub fn steal_slope(rounds: &[RoundTime]) -> f64 {
    let mut slopes = Vec::new();
    for (i, a) in rounds.iter().enumerate() {
        for b in &rounds[i + 1..] {
            let dx = b.steal_s - a.steal_s;
            if dx.abs() >= MIN_STEAL_DELTA_S {
                slopes.push((b.wall_s - a.wall_s) / dx);
            }
        }
    }
    if slopes.is_empty() {
        return 0.0;
    }
    median(&slopes).clamp(STEAL_SLOPE_RANGE.0, STEAL_SLOPE_RANGE.1)
}

/// The round time of a run *at zero hypervisor steal*: the median of
/// `wall − slope × steal`, with the slope fitted on the run's own
/// rounds. On a host that steals nothing this is the plain median.
///
/// Why: on the shared 2-core host steal per 20-second run ranged from
/// 0.1 s to 13 s, and the plain median of `live-net` followed it from
/// 59 k windows/s (steal < 1 s, four runs within 1 %) down to 39 k.
/// Steal is the hypervisor running someone else; it says nothing about
/// the program, and both sides of any later comparison are adjusted
/// the same way.
pub fn steal_adjusted_s(rounds: &[RoundTime]) -> f64 {
    let slope = steal_slope(rounds);
    let adjusted: Vec<f64> = rounds
        .iter()
        .map(|r| r.wall_s - slope * r.steal_s)
        .collect();
    median(&adjusted)
}

/// By what share of `base` the value `new` is *worse* (positive) or
/// better (negative), given the metric's direction.
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Whether `new` regresses past `bound` relative to `base`.
pub fn breaches(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worse_by(base, new, better) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    fn round(wall_s: f64, steal_s: f64) -> RoundTime {
        RoundTime { wall_s, steal_s }
    }

    #[test]
    fn without_steal_the_adjusted_time_is_the_median() {
        let rounds = [round(1.5, 0.0), round(1.7, 0.01), round(1.6, 0.0)];
        assert_eq!(steal_slope(&rounds), 0.0);
        assert_eq!(steal_adjusted_s(&rounds), 1.6);
        assert_eq!(steal_adjusted_s(&[]), 0.0);
    }

    #[test]
    fn linear_steal_contamination_is_removed() {
        // wall = 1.5 + 0.8 × steal, plus one wild round.
        let mut rounds: Vec<RoundTime> = [0.0, 0.3, 0.9, 1.4, 0.1, 2.0, 0.6]
            .iter()
            .map(|&steal| round(1.5 + 0.8 * steal, steal))
            .collect();
        rounds.push(round(4.0, 0.2));
        assert!(
            (steal_slope(&rounds) - 0.8).abs() < 0.05,
            "{}",
            steal_slope(&rounds)
        );
        assert!(
            (steal_adjusted_s(&rounds) - 1.5).abs() < 0.02,
            "{}",
            steal_adjusted_s(&rounds)
        );
        // The plain median is far off.
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        assert!(median(&walls) > 1.8);
    }

    #[test]
    fn the_fitted_slope_stays_physical() {
        // Rounds that got *faster* with more steal: no negative slope.
        let faster = [round(2.0, 0.0), round(1.5, 1.0), round(1.0, 2.0)];
        assert_eq!(steal_slope(&faster), 0.0);
        assert_eq!(steal_adjusted_s(&faster), 1.5);
        // An absurdly steep fit is capped.
        let steep = [round(1.0, 0.0), round(11.0, 1.0)];
        assert_eq!(steal_slope(&steep), 2.0);
    }

    #[test]
    fn bounds_are_direction_aware() {
        // Lower-is-better: 10 → 11.5 is 15 % worse.
        assert!((worse_by(10.0, 11.5, Better::Lower) - 0.15).abs() < 1e-12);
        assert!(breaches(10.0, 11.6, Better::Lower, 0.15));
        assert!(!breaches(10.0, 11.4, Better::Lower, 0.15));
        assert!(!breaches(10.0, 5.0, Better::Lower, 0.15));
        // Higher-is-better: 100 → 89 is 11 % worse, 100 → 120 is a gain.
        assert!(breaches(100.0, 89.0, Better::Higher, 0.10));
        assert!(!breaches(100.0, 91.0, Better::Higher, 0.10));
        assert!(!breaches(100.0, 120.0, Better::Higher, 0.10));
    }
}
