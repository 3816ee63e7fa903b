//! Neighbor-table repair (crash-churn extension).
//!
//! When the failure detector (see [`crate::failure`]) declares a neighbor
//! dead with repair on, the entries that stored it are evicted and their
//! slots become *vacated* ([`NeighborTable::vacate`]). The table is the
//! one record of which slots await repair: a vacated slot's word holds
//! its attempt count and backoff wait, reads as empty to everything else,
//! and leaves that state in one of two ways — an entry is written over it
//! (by the repair or by the ordinary protocol), or its attempts run out
//! and it becomes empty. This module refills vacated slots, from the
//! origin's own reverse set where it can and otherwise by suffix-routing
//! `RepairQryMsg`s toward each slot's desired suffix:
//!
//! 1. The origin synthesizes a routing target carrying the vacated
//!    `(level, digit)` slot's desired suffix ([`synth_target`]). A live
//!    reverse neighbor that carries the suffix — a node that stores the
//!    origin — is installed at once, with no query
//!    ([`NeighborTable::closest_reverse`]); a fresh vacancy is due in the
//!    tick that evicted it, so such a local refill lands in that tick.
//!    Otherwise the origin sends a query to every live sharer of the
//!    slot's level (falling back to its whole table when no sharer
//!    remains; [`recipients`]).
//! 2. Each receiver either *is* a carrier of the desired suffix (it
//!    replies with itself), stores one (it replies with that entry), or
//!    forwards the query one suffix-routing hop closer to the target.
//!    Each hop strictly lengthens the common suffix with the target, so a
//!    query terminates within `d` hops, with a `RepairRlyMsg` back to the
//!    origin either way.
//! 3. The origin installs the first usable replacement for a slot that is
//!    still vacated through the join machinery's `T`→`S` state discipline
//!    (`install` + `RvNghNotiMsg`), re-converging survivors to
//!    Definition-3.8 consistency.
//!
//! Each detector tick, [`due`] walks the vacated slots: a slot is
//! re-queried up to [`MAX_REPAIR_ATTEMPTS`] times, and one that stays dry
//! is declared unrepairable and emptied — which is exactly right when no
//! survivor carries the suffix, and a documented limitation when the only
//! carriers were never stored by any surviving sharer and store none of
//! the nodes a query reaches (a branch whose stored representatives all
//! crashed cannot be re-discovered locally). The walk is paced, so a
//! node that loses many neighbors at once does not flood the network.

use std::collections::BTreeSet;

use hyperring_id::NodeId;

use crate::table::NeighborTable;

/// Detector ticks a vacated slot is re-queried before the repair gives
/// up and declares the slot unrepairable.
pub(crate) const MAX_REPAIR_ATTEMPTS: u32 = 8;

/// Vacated slots queried in one detector tick, at most; the rest stay
/// vacated, uncharged, for a later tick.
pub(crate) const MAX_QUERIES_PER_TICK: u32 = 4;

/// The slots one detector tick re-drives.
#[derive(Debug, Default)]
pub(crate) struct DueSlots {
    /// Slots to (re-)query this tick.
    pub(crate) query: Vec<(usize, u8)>,
    /// Slots whose attempt budget ran out; declared unrepairable.
    pub(crate) exhausted: Vec<(usize, u8)>,
}

/// Splits the vacated slots of `table` for one detector tick, in slot
/// order: slots out of budget become empty and move to `exhausted`; of
/// the rest, up to [`MAX_QUERIES_PER_TICK`] whose wait is over are
/// charged one attempt, set to wait `2^attempts` ticks (capped at 32)
/// and returned for querying.
pub(crate) fn due(table: &mut NeighborTable) -> DueSlots {
    let mut out = DueSlots::default();
    let mut issued = 0u32;
    for (level, digit, mut v) in table.vacancies() {
        if u32::from(v.attempts) >= MAX_REPAIR_ATTEMPTS {
            table.set_vacancy(level, digit, None);
            out.exhausted.push((level, digit));
            continue;
        }
        v.wait = v.wait.saturating_sub(1);
        if v.wait == 0 && issued < MAX_QUERIES_PER_TICK {
            v.attempts += 1;
            v.wait = 1 << v.attempts.min(5);
            issued += 1;
            out.query.push((level, digit));
        }
        table.set_vacancy(level, digit, Some(v));
    }
    out
}

/// First-hop recipients for a repair query on `(level, _)`: every distinct
/// live non-self entry node at levels `>= level` (those share the slot's
/// suffix context, so their own `(level, digit)` entry has the same
/// desired suffix), or — when eviction left no such sharer — every
/// distinct live entry node of the whole table. Nodes in `condemned` are
/// not live.
pub(crate) fn recipients(
    table: &NeighborTable,
    condemned: &BTreeSet<NodeId>,
    level: usize,
) -> Vec<NodeId> {
    let pick = |lo: usize| -> Vec<NodeId> {
        let mut nodes = table.distinct_entries_from(lo);
        nodes.retain(|node| !condemned.contains(node));
        nodes
    };
    let sharers = pick(level);
    if sharers.is_empty() {
        pick(0)
    } else {
        sharers
    }
}

/// Synthesizes the suffix-routing target for slot `(level, digit)` of
/// `owner`: the owner's own identifier with digit `level` replaced by
/// `digit`. Its rightmost `level + 1` digits are exactly the slot's
/// desired suffix, and higher digits only shorten as routing converges.
pub(crate) fn synth_target(owner: &NodeId, level: usize, digit: u8) -> NodeId {
    let mut digits = owner.digits_lsd().to_vec();
    digits[level] = digit;
    NodeId::from_digits_lsd(&digits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Entry, NodeState};
    use hyperring_id::IdSpace;

    #[test]
    fn synth_target_carries_the_desired_suffix() {
        let space = IdSpace::new(4, 5).unwrap();
        let me = space.parse_id("21233").unwrap();
        let t = NeighborTable::new(space, me);
        let target = synth_target(&me, 2, 0);
        assert_eq!(target.to_string(), "21033");
        assert!(t.desired_suffix(2, 0).matches(&target));
        assert_eq!(me.csuf_len(&target), 2);
    }

    /// A table of `000` in b=4, d=3 with `slots` vacated.
    fn vacated(slots: &[(usize, u8)]) -> NeighborTable {
        let space = IdSpace::new(4, 3).unwrap();
        let mut table = NeighborTable::new(space, space.parse_id("000").unwrap());
        for &(level, digit) in slots {
            table.vacate(level, digit);
        }
        table
    }

    /// The ticks (counted from 1) on which `due` queries or exhausts the
    /// one slot `(1, 2)`.
    fn schedule(table: &mut NeighborTable, ticks: u64) -> (Vec<u64>, Vec<u64>) {
        let (mut queried, mut exhausted) = (Vec::new(), Vec::new());
        for tick in 1..=ticks {
            let due = due(table);
            if due.query.contains(&(1, 2)) {
                queried.push(tick);
            }
            if due.exhausted.contains(&(1, 2)) {
                exhausted.push(tick);
            }
        }
        (queried, exhausted)
    }

    #[test]
    fn due_waits_exponentially_between_queries_then_exhausts() {
        let mut table = vacated(&[(1, 2)]);
        let (queried, exhausted) = schedule(&mut table, 200);
        // Queried on tick 1, then after 2, 4, 8, 16 ticks (2^attempts),
        // then every 32; exhausted the tick after the eighth query.
        assert_eq!(queried, vec![1, 3, 7, 15, 31, 63, 95, 127]);
        assert_eq!(queried.len() as u32, MAX_REPAIR_ATTEMPTS);
        assert_eq!(exhausted, vec![128]);
        // Out of attempts, the slot is empty again, not vacated.
        assert!(!table.is_vacated(1, 2));
        assert!(!table.is_filled(1, 2));
    }

    #[test]
    fn a_tick_queries_at_most_four_slots_and_defers_the_rest() {
        let slots = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)];
        let mut table = vacated(&slots);
        let first = due(&mut table);
        assert_eq!(first.query, slots[..4].to_vec());
        assert_eq!(MAX_QUERIES_PER_TICK, 4);
        // The deferred slots stay vacated and are not charged: they go
        // out on the next tick, while the first four wait out theirs.
        assert!(table.is_vacated(1, 2) && table.is_vacated(1, 3));
        assert_eq!(due(&mut table).query, slots[4..].to_vec());
        // Every slot is still driven to exhaustion eventually.
        let mut exhausted = Vec::new();
        for _ in 0..400 {
            exhausted.extend(due(&mut table).exhausted);
        }
        exhausted.sort_unstable();
        assert_eq!(exhausted, slots.to_vec());
    }

    #[test]
    fn due_drops_slots_refilled_elsewhere() {
        let mut table = vacated(&[(1, 2)]);
        let other = table.space().parse_id("120").unwrap();
        table.set(
            1,
            2,
            Entry {
                node: other,
                state: NodeState::T,
            },
        );
        let due = due(&mut table);
        assert!(due.query.is_empty() && due.exhausted.is_empty());
        assert!(!table.is_vacated(1, 2));
    }

    #[test]
    fn recipients_prefer_sharers_and_skip_condemned() {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id("000").unwrap();
        let low = space.parse_id("321").unwrap(); // level 0 only
        let high = space.parse_id("100").unwrap(); // shares 2 digits
        let mut table = NeighborTable::new(space, me);
        let k = me.csuf_len(&low);
        table.set(
            k,
            low.digit(k),
            Entry {
                node: low,
                state: NodeState::S,
            },
        );
        let k = me.csuf_len(&high);
        table.set(
            k,
            high.digit(k),
            Entry {
                node: high,
                state: NodeState::S,
            },
        );
        let mut condemned = BTreeSet::new();
        assert_eq!(recipients(&table, &condemned, 1), vec![high]);
        // With the sharer condemned, fall back to the whole table.
        condemned.insert(high);
        assert_eq!(recipients(&table, &condemned, 1), vec![low]);
    }
}
