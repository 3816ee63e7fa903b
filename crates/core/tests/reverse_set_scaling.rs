//! Reverse-set insert cost against set size, as a ratio of two timings.
//!
//! A timing test, so it has this binary to itself: beside the table's
//! proptests it shared two cores with them and read a ratio twice its
//! usual size now and then.

use std::time::{Duration, Instant};

use hyperring_core::NeighborTable;
use hyperring_id::{IdSpace, NodeId};

/// Best of three timings of `n` distinct reverse neighbors going into one
/// slot of a fresh b=16, d=8 table.
fn insert_time(n: u32) -> Duration {
    let space = IdSpace::new(16, 8).expect("valid space");
    let owner = space.parse_id("00000000").expect("valid id");
    // Scatter the ids: consecutive integers would arrive in id order.
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let x = i.wrapping_mul(0x9e37_79b1) & 0x00ff_ffff;
            let digits: Vec<u8> = std::iter::once(7)
                .chain((0..7).map(|k| ((x >> (4 * k)) & 0xf) as u8))
                .collect();
            space.id_from_digits(&digits).expect("digits within base")
        })
        .collect();
    (0..3)
        .map(|_| {
            let mut t = NeighborTable::new(space, owner);
            let start = Instant::now();
            for &id in &ids {
                t.add_reverse(0, 7, id);
            }
            let took = start.elapsed();
            assert_eq!(t.reverse_of(0, 7).count(), n as usize);
            took
        })
        .min()
        .expect("three timings")
}

/// The much-referenced nodes of a network hold reverse sets of size Θ(n),
/// so an insert that shifts the set makes a bootstrap quadratic. Eight
/// times the inserts may cost up to sixteen times the time (a sorted
/// vector costs about sixty-four); a ratio, so the host's speed cancels.
#[test]
fn reverse_set_inserts_scale_near_linearly() {
    let small = insert_time(1 << 14);
    let large = insert_time(1 << 17);
    assert!(
        large <= small * 16,
        "2^17 inserts took {large:?}, 2^14 took {small:?}: ratio {:.1}",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
