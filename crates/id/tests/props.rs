//! Property-based tests for identifier and suffix arithmetic.

use hyperring_id::{IdSpace, NodeId, Suffix};
use proptest::prelude::*;

/// Strategy producing a space plus digit vectors valid in it.
fn space_and_digits() -> impl Strategy<Value = (IdSpace, Vec<u8>, Vec<u8>)> {
    (2u16..=16, 1usize..=24).prop_flat_map(|(b, d)| {
        let space = IdSpace::new(b, d).unwrap();
        let digit = 0u8..(b as u8);
        (
            Just(space),
            proptest::collection::vec(digit.clone(), d),
            proptest::collection::vec(digit, d),
        )
    })
}

proptest! {
    #[test]
    fn csuf_is_symmetric_and_bounded((space, xs, ys) in space_and_digits()) {
        let x = space.id_from_digits(&xs).unwrap();
        let y = space.id_from_digits(&ys).unwrap();
        let k = x.csuf_len(&y);
        prop_assert_eq!(k, y.csuf_len(&x));
        prop_assert!(k <= space.digit_count());
        // csuf equals d iff equal ids.
        prop_assert_eq!(k == space.digit_count(), x == y);
        // The digits below k match; digit k (if any) differs.
        for i in 0..k {
            prop_assert_eq!(x.digit(i), y.digit(i));
        }
        if k < space.digit_count() {
            prop_assert_ne!(x.digit(k), y.digit(k));
        }
    }

    #[test]
    fn csuf_triangle_property((space, xs, ys) in space_and_digits(), zs in proptest::collection::vec(0u8..16, 1..=24)) {
        // |csuf(x,z)| >= min(|csuf(x,y)|, |csuf(y,z)|): suffix matching is an
        // ultrametric-like relation.
        let zs: Vec<u8> = zs
            .iter()
            .take(space.digit_count())
            .map(|&v| v % space.base() as u8)
            .collect();
        prop_assume!(zs.len() == space.digit_count());
        let x = space.id_from_digits(&xs).unwrap();
        let y = space.id_from_digits(&ys).unwrap();
        let z = space.id_from_digits(&zs).unwrap();
        let xy = x.csuf_len(&y);
        let yz = y.csuf_len(&z);
        let xz = x.csuf_len(&z);
        prop_assert!(xz >= usize::min(xy, yz));
    }

    #[test]
    fn parse_display_roundtrip((space, xs, _) in space_and_digits()) {
        let x = space.id_from_digits(&xs).unwrap();
        let s = x.to_string();
        prop_assert_eq!(space.parse_id(&s).unwrap(), x);
    }

    #[test]
    fn suffix_extend_left_then_parent((space, xs, _) in space_and_digits(), j in 0u8..16) {
        let j = j % space.base() as u8;
        let x = space.id_from_digits(&xs).unwrap();
        for k in 0..space.digit_count() {
            let s = x.suffix(k);
            prop_assert!(x.has_suffix(&s));
            let ext = s.extend_left(j);
            prop_assert_eq!(ext.parent(), Some(s));
            prop_assert_eq!(ext.len(), k + 1);
            // x has suffix ext iff x's k-th digit is j.
            prop_assert_eq!(x.has_suffix(&ext), x.digit(k) == j);
        }
    }

    #[test]
    fn suffix_of_id_matches_all_sharers((space, xs, ys) in space_and_digits()) {
        let x = space.id_from_digits(&xs).unwrap();
        let y = space.id_from_digits(&ys).unwrap();
        let k = x.csuf_len(&y);
        let s = x.suffix(k);
        prop_assert!(s.matches(&x));
        prop_assert!(s.matches(&y));
        prop_assert_eq!(x.csuf(&y), s);
    }

    #[test]
    fn value_roundtrip_small_spaces(b in 2u16..=16, d in 1usize..=8, raw in 0u128..1_000_000) {
        let space = IdSpace::new(b, d).unwrap();
        let cap = space.capacity().unwrap();
        let v = raw % cap;
        let id = space.id_from_value(v).unwrap();
        prop_assert_eq!(id.to_value(b), Some(v));
        prop_assert!(space.contains(&id));
    }

    #[test]
    fn ordering_matches_value_order(b in 2u16..=16, d in 1usize..=8, a in 0u128..10_000, c in 0u128..10_000) {
        let space = IdSpace::new(b, d).unwrap();
        let cap = space.capacity().unwrap();
        let (a, c) = (a % cap, c % cap);
        let ia = space.id_from_value(a).unwrap();
        let ic = space.id_from_value(c).unwrap();
        prop_assert_eq!(ia.cmp(&ic), a.cmp(&c));
    }

    #[test]
    fn suffix_ends_with_transitive((space, xs, _) in space_and_digits()) {
        let x = space.id_from_digits(&xs).unwrap();
        let d = space.digit_count();
        for k in 0..=d {
            for k2 in 0..=k {
                prop_assert!(x.suffix(k).ends_with(&x.suffix(k2)));
            }
        }
    }
}

#[test]
fn node_id_is_send_sync_copy() {
    fn assert_traits<T: Send + Sync + Copy + 'static>() {}
    assert_traits::<NodeId>();
    assert_traits::<Suffix>();
    assert_traits::<IdSpace>();
}
