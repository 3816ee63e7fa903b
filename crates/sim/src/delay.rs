use rand::rngs::StdRng;
use rand::Rng;

use crate::Time;

/// The fate of one transmitted message: delivered after a latency,
/// silently dropped, or duplicated (two independent copies in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered once, after the given latency (µs).
    Deliver(Time),
    /// Lost in transit; the receiver never sees it.
    Drop,
    /// Delivered twice, as two copies with independent latencies (µs).
    Duplicate(Time, Time),
}

/// Source of per-message delivery latency (and, optionally, loss).
///
/// Implementations must be deterministic given the `rng` (which the
/// simulator seeds from its run seed), so simulations are reproducible.
pub trait DelayModel {
    /// Latency in microseconds for a message from actor `from` to actor
    /// `to`.
    fn delay(&mut self, from: usize, to: usize, rng: &mut StdRng) -> Time;

    /// Decides the [`Fate`] of a message from `from` to `to`.
    ///
    /// The default implementation always delivers, drawing **exactly** the
    /// same single latency sample as [`delay`](Self::delay) — so a
    /// non-faulty model run through the fate path consumes an identical
    /// RNG stream and reproduces pre-fault simulations bit for bit. Only
    /// fault-injecting models (e.g. [`FaultyDelay`]) override this.
    fn fate(&mut self, from: usize, to: usize, rng: &mut StdRng) -> Fate {
        Fate::Deliver(self.delay(from, to, rng))
    }
}

/// Fixed latency for every message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantDelay(
    /// The latency in microseconds.
    pub Time,
);

impl DelayModel for ConstantDelay {
    fn delay(&mut self, _from: usize, _to: usize, _rng: &mut StdRng) -> Time {
        self.0
    }
}

/// Latency drawn uniformly from `lo..=hi` per message.
///
/// With a wide range this doubles as a message-reordering adversary: replies
/// can overtake requests between the same pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformDelay {
    /// Minimum latency (µs).
    pub lo: Time,
    /// Maximum latency (µs), inclusive.
    pub hi: Time,
}

impl UniformDelay {
    /// Creates a model over `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: Time, hi: Time) -> Self {
        assert!(lo <= hi, "empty latency range {lo}..={hi}");
        UniformDelay { lo, hi }
    }
}

impl DelayModel for UniformDelay {
    fn delay(&mut self, _from: usize, _to: usize, rng: &mut StdRng) -> Time {
        rng.gen_range(self.lo..=self.hi)
    }
}

/// Fault-injecting wrapper around any [`DelayModel`]: each message is
/// dropped with probability `drop_p`, duplicated with probability `dup_p`,
/// and otherwise delivered with the inner model's latency. All decisions
/// come from the simulator's seeded RNG, so faulty runs are exactly as
/// reproducible as fault-free ones.
///
/// This breaks the paper's reliable-delivery assumption (iii) on purpose:
/// it is the adversary the engine's timer-driven retries are tested
/// against.
///
/// # Examples
///
/// ```
/// use hyperring_sim::{ConstantDelay, DelayModel, Fate, FaultyDelay};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut faulty = FaultyDelay::new(ConstantDelay(100), 0.25, 0.10);
/// let fates: Vec<Fate> = (0..200).map(|_| faulty.fate(0, 1, &mut rng)).collect();
/// assert!(fates.contains(&Fate::Drop));
/// assert!(fates.contains(&Fate::Deliver(100)));
/// assert!(fates.contains(&Fate::Duplicate(100, 100)));
/// ```
#[derive(Debug, Clone)]
pub struct FaultyDelay<D> {
    inner: D,
    drop_p: f64,
    dup_p: f64,
}

impl<D> FaultyDelay<D> {
    /// Wraps `inner`, dropping each message with probability `drop_p` and
    /// duplicating it with probability `dup_p`.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` or they sum above 1.
    pub fn new(inner: D, drop_p: f64, dup_p: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_p), "drop_p out of range");
        assert!((0.0..=1.0).contains(&dup_p), "dup_p out of range");
        assert!(drop_p + dup_p <= 1.0, "drop_p + dup_p must not exceed 1");
        FaultyDelay {
            inner,
            drop_p,
            dup_p,
        }
    }

    /// The wrapped latency model.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: DelayModel> DelayModel for FaultyDelay<D> {
    fn delay(&mut self, from: usize, to: usize, rng: &mut StdRng) -> Time {
        self.inner.delay(from, to, rng)
    }

    fn fate(&mut self, from: usize, to: usize, rng: &mut StdRng) -> Fate {
        // One uniform draw decides drop/duplicate/deliver; latency draws
        // happen after, so the fault dice never perturb the latency
        // stream's shape within a fate.
        let roll: f64 = rng.gen();
        if roll < self.drop_p {
            return Fate::Drop;
        }
        let first = self.inner.delay(from, to, rng);
        if roll < self.drop_p + self.dup_p {
            let second = self.inner.delay(from, to, rng);
            Fate::Duplicate(first, second)
        } else {
            Fate::Deliver(first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_delay_ignores_endpoints() {
        let mut m = ConstantDelay(7);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.delay(0, 1, &mut rng), 7);
        assert_eq!(m.delay(9, 3, &mut rng), 7);
    }

    #[test]
    fn uniform_delay_stays_in_range_and_is_seed_deterministic() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let mut m = UniformDelay::new(10, 20);
        for _ in 0..100 {
            let da = m.delay(0, 1, &mut a);
            assert_eq!(da, m.delay(0, 1, &mut b));
            assert!((10..=20).contains(&da));
        }
    }

    #[test]
    #[should_panic(expected = "empty latency range")]
    fn uniform_delay_rejects_inverted_range() {
        UniformDelay::new(5, 4);
    }

    #[test]
    fn default_fate_consumes_the_same_rng_stream_as_delay() {
        // A plain model driven through fate() must be indistinguishable
        // from one driven through delay() — this is what keeps pre-fault
        // golden runs bit-identical.
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut m1 = UniformDelay::new(1, 1_000_000);
        let mut m2 = UniformDelay::new(1, 1_000_000);
        for i in 0..200usize {
            let f = m1.fate(i, i + 1, &mut a);
            let d = m2.delay(i, i + 1, &mut b);
            assert_eq!(f, Fate::Deliver(d));
        }
        assert_eq!(a, b, "fate() drew extra RNG samples");
    }

    #[test]
    fn faulty_delay_mixes_all_three_fates_deterministically() {
        let run = |seed: u64| {
            let mut m = FaultyDelay::new(ConstantDelay(50), 0.2, 0.1);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..300).map(|_| m.fate(0, 1, &mut rng)).collect::<Vec<_>>()
        };
        let fates = run(5);
        assert_eq!(run(5), fates);
        let drops = fates.iter().filter(|f| **f == Fate::Drop).count();
        let dups = fates
            .iter()
            .filter(|f| matches!(f, Fate::Duplicate(_, _)))
            .count();
        assert!(drops > 0 && dups > 0 && drops + dups < fates.len());
        assert_eq!(
            *FaultyDelay::new(ConstantDelay(9), 0.0, 0.0).inner(),
            ConstantDelay(9)
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn faulty_delay_rejects_overfull_probabilities() {
        FaultyDelay::new(ConstantDelay(1), 0.7, 0.6);
    }

    #[test]
    fn zero_probability_faulty_delay_always_delivers() {
        let mut m = FaultyDelay::new(ConstantDelay(42), 0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(m.fate(0, 1, &mut rng), Fate::Deliver(42));
        }
    }
}
