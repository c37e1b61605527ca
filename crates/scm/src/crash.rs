//! Crash policies: which in-flight writes survive a failure.
//!
//! The paper's failure model (§2): "on a system failure, in-flight memory
//! operations may fail, and ... atomic updates either complete or do not
//! modify memory". At crash time the simulator gathers every pending
//! 64-bit word (dirty cache words plus write-combining entries) and asks a
//! `CrashPolicy` which of them had already reached the media.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decides the fate of in-flight words at a simulated crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPolicy {
    /// Every pending write retired just before the failure — the luckiest
    /// possible crash.
    ApplyAll,
    /// No pending write retired — a power cut at the worst moment.
    DropAll,
    /// Each pending word independently retired with probability
    /// `apply_probability`, from a deterministic seed. This is the
    /// adversarial torn-write case: streaming stores retire out of order,
    /// so *any* subset is a legal outcome.
    Random {
        /// RNG seed, so failures are reproducible.
        seed: u64,
        /// Probability in `[0, 1]` that a given pending word retired.
        apply_probability: f64,
    },
}

impl CrashPolicy {
    /// Convenience constructor for the common 50/50 random policy.
    pub fn random(seed: u64) -> Self {
        CrashPolicy::Random {
            seed,
            apply_probability: 0.5,
        }
    }

    /// Decides, for each of `n` pending words in the order they are
    /// handed over, whether it retired before the failure.
    pub fn retired(&self, n: usize) -> Vec<bool> {
        match *self {
            CrashPolicy::ApplyAll => vec![true; n],
            CrashPolicy::DropAll => vec![false; n],
            CrashPolicy::Random {
                seed,
                apply_probability,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let p = apply_probability.clamp(0.0, 1.0);
                (0..n).map(|_| rng.gen_bool(p)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retired(policy: CrashPolicy) -> usize {
        policy.retired(100).into_iter().filter(|&r| r).count()
    }

    #[test]
    fn apply_all_keeps_everything() {
        assert_eq!(retired(CrashPolicy::ApplyAll), 100);
    }

    #[test]
    fn drop_all_keeps_nothing() {
        assert_eq!(retired(CrashPolicy::DropAll), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = CrashPolicy::random(42).retired(100);
        let b = CrashPolicy::random(42).retired(100);
        assert_eq!(a, b);
        let c = CrashPolicy::random(43).retired(100);
        assert_ne!(a, c, "different seeds should normally differ");
    }

    #[test]
    fn random_probability_extremes() {
        let all = CrashPolicy::Random {
            seed: 1,
            apply_probability: 1.0,
        };
        assert_eq!(retired(all), 100);
        let none = CrashPolicy::Random {
            seed: 1,
            apply_probability: 0.0,
        };
        assert_eq!(retired(none), 0);
    }

    #[test]
    fn random_is_a_strict_subset_usually() {
        let kept = retired(CrashPolicy::random(7));
        assert!(kept > 0 && kept < 100);
    }
}
