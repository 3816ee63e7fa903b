//! Theorem 4: the expected number of `JoinNotiMsg` sent by a *single*
//! joining node, measured against the closed-form expectation.

use hyperring_analysis::expected_join_noti;
use hyperring_core::{ProtocolOptions, SimNetworkBuilder};
use hyperring_id::IdSpace;
use hyperring_sim::UniformDelay;

use crate::workload::{distinct_ids, fan_out};

/// One network size's measured-vs-analytic comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem4Point {
    /// Network size `n`.
    pub n: usize,
    /// Mean `JoinNotiMsg` over the sampled single joins.
    pub measured: f64,
    /// Theorem 4's `E(J)`.
    pub analytic: f64,
    /// Number of independent single joins sampled.
    pub samples: usize,
}

/// For each `n` in `sizes`, joins `samples` fresh nodes into an `n`-node
/// network **one at a time** (each into an unmodified copy of `V`) and
/// compares the mean `JoinNotiMsg` count with Theorem 4.
///
/// # Panics
///
/// Panics if a join fails to terminate or leaves the network inconsistent.
pub fn run_theorem4(
    b: u16,
    d: usize,
    sizes: &[usize],
    samples: usize,
    seed: u64,
) -> Vec<Theorem4Point> {
    let space = IdSpace::new(b, d).expect("valid space");
    sizes
        .iter()
        .map(|&n| {
            let ids = distinct_ids(space, n + samples, seed ^ (n as u64).wrapping_mul(0x9e37));
            let members = &ids[..n];
            // Each sampled join runs against its own copy of `V` with its
            // own seed, so the samples are independent — fan them across
            // cores. The counts come back in sample order.
            let counts: Vec<u64> = fan_out(samples, |s| {
                let joiner = ids[n + s];
                let mut builder = SimNetworkBuilder::new(space);
                builder.options(ProtocolOptions::new());
                for id in members {
                    builder.add_member(*id);
                }
                builder.add_joiner(joiner, members[s % n], 0);
                let mut net = builder.build(
                    UniformDelay::new(1_000, 50_000),
                    seed.wrapping_add(s as u64),
                );
                net.run();
                assert!(net.all_in_system(), "single join did not terminate");
                debug_assert!(net.check_consistency().is_consistent());
                let count = net
                    .joiners()
                    .next()
                    .expect("one joiner")
                    .stats()
                    .join_noti();
                count
            });
            let total: u64 = counts.iter().sum();
            Theorem4Point {
                n,
                measured: total as f64 / samples as f64,
                analytic: expected_join_noti(b as u32, d as u32, n as u64),
                samples,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_tracks_analytic() {
        // Small but meaningful: n = 128/512, b = 16, d = 8, 24 samples.
        let pts = run_theorem4(16, 8, &[128, 512], 24, 11);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.analytic > 0.0);
            // Sampling noise: allow a generous band, but the measurement
            // must be in the right ballpark (the paper's measured averages
            // sit ~25% below the Theorem-5 bound).
            let rel = (p.measured - p.analytic).abs() / p.analytic;
            assert!(
                rel < 0.6,
                "n={}: measured {} vs analytic {}",
                p.n,
                p.measured,
                p.analytic
            );
        }
        // More members to notify at larger n... not monotone in general
        // (scalloping), but both points must be positive and finite.
        assert!(pts.iter().all(|p| p.measured.is_finite()));
    }
}
