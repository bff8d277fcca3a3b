//! The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014) behind
//! every seeded, order-independent decision in the workspace: fault
//! plans, storm victims, re-dial jitter and planted spike schedules.
//! Each is a pure function of its inputs, so a seed replays exactly.

/// SplitMix64's increment, the golden-ratio gamma.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output for state `x`: the finalizer of `x + γ`.
pub fn splitmix64(x: u64) -> u64 {
    finalize(x.wrapping_add(GAMMA))
}

/// The finalizer of an already-mixed key `h`, as a uniform float in
/// `[0, 1)` taken from its top 53 bits.
pub fn unit_f64(h: u64) -> f64 {
    (finalize(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        // The first two outputs of SplitMix64 seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn unit_takes_the_top_53_bits() {
        assert_eq!(unit_f64(12345), 0.950_881_069_120_803_5);
        assert!((0.0..1.0).contains(&unit_f64(u64::MAX)));
    }
}
