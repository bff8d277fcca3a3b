//! Canonical experiment parameters and the argument parser of the one
//! bench binary, `reproduce`.
//!
//! The paper sweeps the error allowance over a doubling ladder (Figure 6's
//! x-axis prints 0.002 … 0.032) and the alert selectivity `k` over
//! 0.1% … 6.4% (§V-B: "varying k from 6.4% to 0.1% can lead to 40% cost
//! reduction"). These constants pin the same grids for every harness.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use volley_core::adaptation::AdaptationConfigBuilder;
use volley_core::AdaptationConfig;

/// The error-allowance ladder (Figure 6 x-axis).
pub const ERR_SWEEP: [f64; 5] = [0.002, 0.004, 0.008, 0.016, 0.032];

/// The selectivity ladder in percent (Figure 5 series).
pub const SELECTIVITY_SWEEP: [f64; 7] = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4];

/// Size knobs of a figure run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepParams {
    /// Trace length in default sampling intervals.
    pub ticks: usize,
    /// Number of independent tasks (VMs / metrics / objects) averaged per
    /// cell.
    pub tasks: usize,
    /// Base random seed.
    pub seed: u64,
    /// Maximum sampling interval `I_m`.
    pub max_interval: u32,
    /// Adaptation patience `p`: 20 (the paper's default) full-size, 10
    /// under `--quick`. A property of the size profile, not a flag.
    pub patience: u32,
}

impl SweepParams {
    /// Full-size run: a day of traces over 40 tasks (the per-server VM
    /// count of the paper's testbed).
    pub fn full() -> Self {
        SweepParams {
            ticks: 5760,
            tasks: 40,
            seed: 20130708,
            max_interval: 16,
            patience: 20,
        }
    }

    /// A fast smoke-test configuration for CI and `--quick` runs.
    pub fn quick() -> Self {
        SweepParams {
            ticks: 1500,
            tasks: 8,
            seed: 20130708,
            max_interval: 16,
            patience: 10,
        }
    }

    /// The adaptation config every single-sampler experiment starts
    /// from: allowance `err` under this run's `I_m` and patience.
    /// Ablations set their one extra knob on the returned builder.
    pub fn adaptation(&self, err: f64) -> AdaptationConfigBuilder {
        AdaptationConfig::builder()
            .error_allowance(err)
            .max_interval(self.max_interval)
            .patience(self.patience)
    }
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams::full()
    }
}

/// `--quick`: the small size profile ([`SweepParams::quick`]).
pub const QUICK: &str = "--quick";
/// `--ticks N`: trace length.
pub const TICKS: &str = "--ticks";
/// `--tasks N`: tasks averaged per cell.
pub const TASKS: &str = "--tasks";
/// `--seed N`: base random seed.
pub const SEED: &str = "--seed";
/// `--max-interval N`: the cap `I_m`.
pub const MAX_INTERVAL: &str = "--max-interval";
/// `--out DIR`: where result files go (default `reproduction`).
pub const OUT: &str = "--out";
/// Every flag `reproduce` reads.
pub const SWEEP_FLAGS: [&str; 6] = [QUICK, TICKS, TASKS, SEED, MAX_INTERVAL, OUT];

/// What `reproduce` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Size knobs: the `--quick` or full profile plus explicit overrides.
    pub params: SweepParams,
    /// Output directory.
    pub out: PathBuf,
}

impl BenchArgs {
    /// Parses `args` against [`SWEEP_FLAGS`]. Anything else — an unknown
    /// flag, a missing or unparsable value — is an error naming the
    /// offender.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<BenchArgs, String> {
        fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
            let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
            raw.parse()
                .map_err(|_| format!("invalid value `{raw}` for {flag}"))
        }
        let args: Vec<String> = args.into_iter().collect();
        let mut parsed = BenchArgs {
            params: if args.iter().any(|a| a == QUICK) {
                SweepParams::quick()
            } else {
                SweepParams::full()
            },
            out: PathBuf::from("reproduction"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            let params = &mut parsed.params;
            match flag {
                QUICK => {}
                TICKS => params.ticks = value::<usize>(flag, it.next())?.max(10),
                TASKS => params.tasks = value::<usize>(flag, it.next())?.max(1),
                SEED => params.seed = value(flag, it.next())?,
                MAX_INTERVAL => params.max_interval = value::<u32>(flag, it.next())?.max(1),
                OUT => parsed.out = PathBuf::from(value::<String>(flag, it.next())?),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(parsed)
    }

    /// [`BenchArgs::parse`] over the process arguments; on error prints
    /// the message and the accepted flags to stderr and exits 2.
    pub fn from_env() -> BenchArgs {
        BenchArgs::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!(
                "reproduce: {message}\naccepted flags: {}",
                SWEEP_FLAGS.join(" ")
            );
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_full() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.params, SweepParams::full());
        assert_eq!(args.out, PathBuf::from("reproduction"));
    }

    #[test]
    fn quick_flag_switches_profile_wherever_it_stands() {
        let args = parse(&["--ticks", "777", "--quick"]).unwrap();
        assert_eq!(args.params.ticks, 777);
        assert_eq!(args.params.patience, SweepParams::quick().patience);
    }

    #[test]
    fn explicit_overrides_apply() {
        let args = parse(&[
            "--quick", "--ticks", "777", "--tasks", "3", "--seed", "5", "--out", "/tmp/x",
        ])
        .unwrap();
        assert_eq!(
            (args.params.ticks, args.params.tasks, args.params.seed),
            (777, 3, 5)
        );
        assert_eq!(args.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(parse(&["--ticks", "abc"]).unwrap_err().contains("`abc`"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn unknown_flags_are_errors() {
        assert!(parse(&["--tick", "100"]).unwrap_err().contains("`--tick`"));
        assert!(parse(&["--smoke"]).unwrap_err().contains("`--smoke`"));
    }

    #[test]
    fn floors_enforced() {
        let p = parse(&["--ticks", "1", "--tasks", "0", "--max-interval", "0"])
            .unwrap()
            .params;
        assert_eq!((p.ticks, p.tasks, p.max_interval), (10, 1, 1));
        assert_eq!(
            parse(&["--max-interval", "64"])
                .unwrap()
                .params
                .max_interval,
            64
        );
    }

    #[test]
    fn sweeps_are_doubling_ladders() {
        for w in ERR_SWEEP.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-12);
        }
        for w in SELECTIVITY_SWEEP.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-12);
        }
    }
}
