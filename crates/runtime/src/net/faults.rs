//! Socket-level fault injection: reconnect storms for `chaos --net`.
//!
//! The in-process [`volley_core::failure::FaultPlan`] perturbs frames; a
//! networked deployment also loses whole connections. At a
//! [`NetFaultPlan`] storm tick the coordinator closes the chosen agents'
//! sockets ahead of that tick's frames, and the agents must re-dial and
//! re-handshake. Victims are a pure hash of `(seed, tick, agent)`, so a
//! schedule repeats across runs and processes with no shared state.

/// Deterministic schedule of connection-level faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    /// A storm fires at every tick `t` with `t % storm_every ==
    /// storm_every - 1`; `0` disables storms.
    storm_every: u64,
    /// Fraction of agents whose connection is severed at each storm tick.
    storm_fraction: f64,
}

impl NetFaultPlan {
    /// A plan with no faults scheduled.
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            storm_every: 0,
            storm_fraction: 0.0,
        }
    }

    /// Schedules a reconnect storm every `every` ticks severing roughly
    /// `fraction` of agent connections (clamped to `[0, 1]`).
    pub fn with_storm(mut self, every: u64, fraction: f64) -> Self {
        self.storm_every = every;
        self.storm_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Whether a storm fires at `tick`.
    pub fn storm_at(&self, tick: u64) -> bool {
        self.storm_every > 0 && tick % self.storm_every == self.storm_every - 1
    }

    /// Whether `agent`'s connection is severed by the storm at `tick`.
    /// Always `false` when no storm fires at `tick`.
    pub fn severs(&self, tick: u64, agent: u32) -> bool {
        if !self.storm_at(tick) || self.storm_fraction <= 0.0 {
            return false;
        }
        let h = mix(self.seed ^ mix(tick) ^ mix(u64::from(agent) << 32 | 0x9e37));
        // Map the top 53 bits to [0, 1): uniform enough for storm sizing.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.storm_fraction
    }
}

/// splitmix64 finalizer — the same mixer the bench harness uses for
/// deterministic trace synthesis; it decides the storms here and the
/// agents' re-dial jitter.
pub(super) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_never_severs() {
        let plan = NetFaultPlan::new(42);
        for tick in 0..100 {
            for agent in 0..8 {
                assert!(!plan.severs(tick, agent));
            }
        }
    }

    #[test]
    fn storms_fire_on_schedule() {
        let plan = NetFaultPlan::new(1).with_storm(10, 1.0);
        assert!(plan.storm_at(9));
        assert!(plan.storm_at(19));
        assert!(!plan.storm_at(10));
        // fraction 1.0 severs everyone at storm ticks.
        assert!(plan.severs(9, 0));
        assert!(plan.severs(9, 7));
        assert!(!plan.severs(8, 0));
    }

    #[test]
    fn fraction_selects_roughly_that_share() {
        let plan = NetFaultPlan::new(7).with_storm(1, 0.25);
        let mut severed = 0u32;
        let total = 200 * 50;
        for tick in 0..200 {
            for agent in 0..50 {
                if plan.severs(tick, agent) {
                    severed += 1;
                }
            }
        }
        let share = f64::from(severed) / f64::from(total);
        assert!(
            (0.18..0.32).contains(&share),
            "expected ~25% severed, got {share:.3}"
        );
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = NetFaultPlan::new(3).with_storm(5, 0.5);
        let b = NetFaultPlan::new(3).with_storm(5, 0.5);
        for tick in 0..50 {
            for agent in 0..10 {
                assert_eq!(a.severs(tick, agent), b.severs(tick, agent));
            }
        }
        // Different seeds pick different victims somewhere.
        let c = NetFaultPlan::new(4).with_storm(5, 0.5);
        let differs = (0..50).any(|t| (0..10).any(|ag| a.severs(t, ag) != c.severs(t, ag)));
        assert!(differs);
    }
}
