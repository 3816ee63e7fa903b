//! Neighbor-table repair (crash-churn extension).
//!
//! When the failure detector (see [`crate::failure`]) declares a neighbor
//! dead, the entries that stored it are evicted and become *vacated
//! slots*. This module tracks those slots and refills them by
//! suffix-routing `RepairQryMsg`s toward each slot's desired suffix:
//!
//! 1. The origin synthesizes a routing target carrying the vacated
//!    `(level, digit)` slot's desired suffix ([`synth_target`]) and sends
//!    a query to every live sharer of the slot's level (falling back to
//!    its whole table when no sharer remains).
//! 2. Each receiver either *is* a carrier of the desired suffix (it
//!    replies with itself), stores one (it replies with that entry), or
//!    forwards the query one suffix-routing hop closer to the target.
//!    Each hop strictly lengthens the common suffix with the target, so a
//!    query terminates within `d` hops, with a `RepairRlyMsg` back to the
//!    origin either way.
//! 3. The origin installs the first usable replacement through the join
//!    machinery's `T`→`S` state discipline (`install` + `RvNghNotiMsg`),
//!    re-converging survivors to Definition-3.8 consistency.
//!
//! Unanswered slots are re-queried on every detector tick up to
//! [`MAX_REPAIR_ATTEMPTS`]; a slot that stays dry is declared
//! unrepairable and left empty — which is exactly right when no survivor
//! carries the suffix, and a documented limitation when the only carriers
//! were never stored by any surviving sharer (a branch whose stored
//! representatives all crashed cannot be re-discovered locally).

use std::collections::{BTreeMap, BTreeSet};

use hyperring_id::NodeId;

use crate::table::NeighborTable;

/// Detector ticks a vacated slot is re-queried before the repair gives
/// up and declares the slot unrepairable.
pub(crate) const MAX_REPAIR_ATTEMPTS: u32 = 8;

/// Per-slot repair bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    /// Queries issued for this slot so far.
    attempts: u32,
    /// Earliest detector tick the slot may be re-queried on (only
    /// consulted when `repair_backoff` is on).
    next_due: u64,
}

/// Repair bookkeeping of one node: vacated slots awaiting replacements,
/// plus the set of condemned (declared-dead) nodes that must never be
/// re-installed from a stale reply.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepairState {
    /// Vacated `(level, digit)` slot → query bookkeeping.
    pending: BTreeMap<(usize, u8), SlotState>,
    /// Nodes this node declared dead.
    condemned: BTreeSet<NodeId>,
    /// Detector ticks seen (drives the per-slot backoff clock).
    tick: u64,
}

/// The slots one detector tick re-drives.
#[derive(Debug, Default)]
pub(crate) struct DueSlots {
    /// Slots to (re-)query this tick.
    pub(crate) query: Vec<(usize, u8)>,
    /// Slots whose attempt budget ran out; declared unrepairable.
    pub(crate) exhausted: Vec<(usize, u8)>,
}

impl RepairState {
    /// No slot pending, nobody condemned: the default, as a constant.
    pub(crate) const IDLE: RepairState = RepairState {
        pending: BTreeMap::new(),
        condemned: BTreeSet::new(),
        tick: 0,
    };

    /// Whether the state reads as [`Self::IDLE`].
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.condemned.is_empty() && self.tick == 0
    }

    /// Marks `(level, digit)` vacated and awaiting repair.
    pub(crate) fn enqueue(&mut self, level: usize, digit: u8) {
        self.pending.entry((level, digit)).or_default();
    }

    /// Whether `(level, digit)` still awaits a replacement.
    pub(crate) fn is_pending(&self, level: usize, digit: u8) -> bool {
        self.pending.contains_key(&(level, digit))
    }

    /// Marks `(level, digit)` repaired.
    pub(crate) fn complete(&mut self, level: usize, digit: u8) {
        self.pending.remove(&(level, digit));
    }

    /// Records that `node` was declared dead.
    pub(crate) fn condemn(&mut self, node: NodeId) {
        self.condemned.insert(node);
    }

    /// Whether `node` was declared dead by this node.
    pub(crate) fn is_condemned(&self, node: &NodeId) -> bool {
        self.condemned.contains(node)
    }

    /// Splits the pending slots for one tick: slots meanwhile refilled by
    /// the ordinary protocol are dropped silently, slots out of budget
    /// move to `exhausted`, and the rest are charged one attempt and
    /// returned for re-querying.
    ///
    /// Pacing (both off by default, keeping the legacy every-tick
    /// schedule): `max_in_flight > 0` caps the queries issued this tick
    /// — surplus slots simply stay pending for a later tick, uncharged;
    /// `backoff` makes a queried slot wait `2^attempts` ticks (capped at
    /// 32) before its next re-query instead of being re-driven every
    /// tick. Slot order is the `BTreeMap` key order, so the schedule is
    /// deterministic either way.
    pub(crate) fn due(
        &mut self,
        table: &NeighborTable,
        max_in_flight: u32,
        backoff: bool,
    ) -> DueSlots {
        self.tick += 1;
        let mut out = DueSlots::default();
        let slots: Vec<(usize, u8)> = self.pending.keys().copied().collect();
        let mut issued = 0u32;
        for (level, digit) in slots {
            if table.is_filled(level, digit) {
                self.pending.remove(&(level, digit));
                continue;
            }
            let st = self.pending[&(level, digit)];
            if st.attempts >= MAX_REPAIR_ATTEMPTS {
                self.pending.remove(&(level, digit));
                out.exhausted.push((level, digit));
                continue;
            }
            if backoff && st.next_due > self.tick {
                continue;
            }
            if max_in_flight > 0 && issued >= max_in_flight {
                continue;
            }
            let st = self.pending.get_mut(&(level, digit)).unwrap();
            st.attempts += 1;
            if backoff {
                st.next_due = self.tick + (1u64 << st.attempts.min(5));
            }
            issued += 1;
            out.query.push((level, digit));
        }
        out
    }

    /// First-hop recipients for a repair query on `(level, _)`: every
    /// distinct live non-self entry node at levels `>= level` (those share
    /// the slot's suffix context, so their own `(level, digit)` entry has
    /// the same desired suffix), or — when eviction left no such sharer —
    /// every distinct live entry node of the whole table.
    pub(crate) fn recipients(&self, table: &NeighborTable, level: usize) -> Vec<NodeId> {
        let pick = |lo: usize| -> Vec<NodeId> {
            let mut nodes = table.distinct_entries_from(lo);
            nodes.retain(|node| !self.is_condemned(node));
            nodes
        };
        let sharers = pick(level);
        if sharers.is_empty() {
            pick(0)
        } else {
            sharers
        }
    }

    /// Hashes the repair state (for [`JoinEngine::hash_state`]
    /// (crate::JoinEngine::hash_state)).
    pub(crate) fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        for (slot, st) in &self.pending {
            slot.hash(h);
            st.attempts.hash(h);
            st.next_due.hash(h);
        }
        for node in &self.condemned {
            node.hash(h);
        }
        self.tick.hash(h);
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

    #[test]
    fn due_charges_attempts_and_exhausts() {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id("000").unwrap();
        let table = NeighborTable::new(space, me);
        let mut r = RepairState::default();
        r.enqueue(1, 2);
        for _ in 0..MAX_REPAIR_ATTEMPTS {
            let due = r.due(&table, 0, false);
            assert_eq!(due.query, vec![(1, 2)]);
            assert!(due.exhausted.is_empty());
        }
        let due = r.due(&table, 0, false);
        assert!(due.query.is_empty());
        assert_eq!(due.exhausted, vec![(1, 2)]);
        assert!(!r.is_pending(1, 2));
    }

    #[test]
    fn in_flight_cap_spreads_queries_over_ticks() {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id("000").unwrap();
        let table = NeighborTable::new(space, me);
        let mut r = RepairState::default();
        for d in 1..4 {
            r.enqueue(0, d);
        }
        // Cap 2: first tick queries the two lowest slots, the third stays
        // pending without being charged an attempt.
        let due = r.due(&table, 2, false);
        assert_eq!(due.query, vec![(0, 1), (0, 2)]);
        assert!(r.is_pending(0, 3));
        // Deferred slots are still driven to exhaustion eventually.
        let mut exhausted = Vec::new();
        for _ in 0..(3 * (MAX_REPAIR_ATTEMPTS + 1)) {
            exhausted.extend(r.due(&table, 2, false).exhausted);
        }
        exhausted.sort_unstable();
        assert_eq!(exhausted, vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn backoff_waits_exponentially_between_queries() {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id("000").unwrap();
        let table = NeighborTable::new(space, me);
        let mut r = RepairState::default();
        r.enqueue(1, 2);
        let mut query_ticks = Vec::new();
        for tick in 1..=40u64 {
            if !r.due(&table, 0, true).query.is_empty() {
                query_ticks.push(tick);
            }
        }
        // Queried on tick 1, then after 2, 4, 8, 16 ticks (2^attempts).
        assert_eq!(query_ticks, vec![1, 3, 7, 15, 31]);
    }

    #[test]
    fn due_drops_slots_refilled_elsewhere() {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id("000").unwrap();
        let other = space.parse_id("120").unwrap();
        let mut table = NeighborTable::new(space, me);
        let mut r = RepairState::default();
        r.enqueue(1, 2);
        table.set(
            1,
            2,
            Entry {
                node: other,
                state: NodeState::T,
            },
        );
        let due = r.due(&table, 0, false);
        assert!(due.query.is_empty() && due.exhausted.is_empty());
        assert!(!r.is_pending(1, 2));
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
        let mut r = RepairState::default();
        assert_eq!(r.recipients(&table, 1), vec![high]);
        // With the sharer condemned, fall back to the whole table.
        r.condemn(high);
        assert_eq!(r.recipients(&table, 1), vec![low]);
    }
}
