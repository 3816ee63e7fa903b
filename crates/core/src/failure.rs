//! Crash-failure detection (crash-churn extension).
//!
//! The paper assumes crash-free nodes and defers failure recovery to
//! future work (§7). This module adds the detection half of that layer: a
//! per-node probe loop driven entirely by the existing
//! [`Effect::SetTimer`](crate::Effect) /
//! [`NodeInput::TimerFired`](crate::NodeInput) boundary, so it works
//! unchanged under every runtime. Each tick of the
//! [`TimerId::FdProbe`](crate::TimerId) timer, an *in_system* node pings
//! the peers it monitors — its primary neighbors plus its reverse
//! neighbors — and charges every probe that went unanswered since the
//! previous tick. A peer that stays silent for
//! [`suspicion_threshold`](crate::FailureDetector::suspicion_threshold)
//! consecutive ticks is declared dead; the engine then evicts its table
//! entries and (optionally) starts a repair (see [`crate::repair`]).
//!
//! The bookkeeping here is deliberately pure: it decides *who* to ping
//! and *who* is dead, while the engine owns all effect emission, so the
//! detector inherits the engine's sans-io determinism. The order it names
//! peers in — ascending by id — is part of that: every `PingMsg` sent
//! draws a delay from the runtime's RNG, so probe order decides every
//! later delivery time.

use hyperring_id::NodeId;

use crate::table::NeighborTable;

/// Probe bookkeeping of one node's failure detector.
#[derive(Debug, Clone, Default)]
pub(crate) struct FailureState {
    /// Whether the periodic `FdProbe` tick is armed.
    pub(crate) running: bool,
    /// The monitored peers, allocated by the first tick: a node that never
    /// runs a detector carries one null pointer for it.
    monitored: Option<Box<Monitored>>,
}

/// The peers one node monitors — every distinct node its table references
/// through an entry or a reverse set, the owner excepted — kept once and
/// re-read only when the table's membership epoch moved. Peers are
/// addressed by the table's arena index, which names the same node for the
/// table's whole life, so neither a tick nor a `Pong` compares identifiers.
#[derive(Debug, Clone, Default)]
struct Monitored {
    /// [`NeighborTable::peer_epoch`] that `peers` was read at.
    epoch: u64,
    /// Arena index and id of each peer, ascending by id: the order
    /// `Ping`s are sent in.
    peers: Vec<(u32, NodeId)>,
    /// Arena index → consecutive probes sent without a `PongMsg`. Zero
    /// for every index that is not in `peers`.
    missed: Vec<u32>,
}

impl Monitored {
    /// Re-reads the table's peer view, carrying each surviving peer's
    /// missed count over and forgetting peers that left the table
    /// (evicted, or replaced through the ordinary protocol).
    fn rebuild(&mut self, table: &NeighborTable) {
        let indices = table.peer_indices();
        // Ascending ids, not indices: size for the largest index.
        let len = indices.iter().max().map_or(0, |&i| i as usize + 1);
        let mut missed = vec![0; len];
        for &i in &indices {
            missed[i as usize] = self.missed.get(i as usize).copied().unwrap_or(0);
        }
        self.missed = missed;
        self.peers.clear();
        let ids = indices.into_iter().map(|i| (i, table.peer_id(i)));
        self.peers.extend(ids);
        self.epoch = table.peer_epoch();
    }
}

/// What one detector tick decided.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct TickOutcome {
    /// Peers declared dead this tick, with their final missed-probe count.
    pub(crate) dead: Vec<(NodeId, u32)>,
    /// Peers to send a `PingMsg` to this tick, in ascending id order.
    pub(crate) probe: Vec<NodeId>,
}

impl FailureState {
    /// A detector that never ran: what the default reads as, as a constant.
    pub(crate) const IDLE: FailureState = FailureState {
        running: false,
        monitored: None,
    };

    /// Whether the detector never ran: the state reads as [`Self::IDLE`].
    pub(crate) fn is_idle(&self) -> bool {
        !self.running && self.monitored.is_none()
    }

    /// Runs one detector tick over the peers `table`'s owner monitors:
    /// those whose missed count reached `threshold` are returned as dead
    /// (and their count forgotten); every other one is probed and charged
    /// one outstanding probe, to be refunded by [`pong`](Self::pong).
    ///
    /// `table` must be the same table at every call. While its membership
    /// is unchanged this is one pass over the cached list.
    pub(crate) fn tick(&mut self, table: &NeighborTable, threshold: u32) -> TickOutcome {
        // A default `Monitored` is the view of an untouched table: epoch
        // 0, no peers.
        let m = self.monitored.get_or_insert_with(Default::default);
        if m.epoch != table.peer_epoch() {
            m.rebuild(table);
        }
        let mut out = TickOutcome::default();
        out.probe.reserve_exact(m.peers.len());
        for &(index, id) in &m.peers {
            let missed = &mut m.missed[index as usize];
            if *missed >= threshold {
                out.dead.push((id, *missed));
                *missed = 0;
            } else {
                *missed += 1;
                out.probe.push(id);
            }
        }
        out
    }

    /// Records a `PongMsg` from `from`, a node of `table`: it is alive, so
    /// its outstanding probe count resets.
    pub(crate) fn pong(&mut self, table: &NeighborTable, from: &NodeId) {
        let Some(m) = &mut self.monitored else {
            return;
        };
        // An index past the end was interned after the last tick: it
        // has no probe outstanding.
        let missed = table
            .peer_index(from)
            .and_then(|i| m.missed.get_mut(i as usize));
        if let Some(missed) = missed {
            *missed = 0;
        }
    }

    /// Hashes the detector state (for [`JoinEngine::hash_state`]
    /// (crate::JoinEngine::hash_state)): every peer with a probe
    /// outstanding and how many, in id order.
    pub(crate) fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.running.hash(h);
        let Some(m) = &self.monitored else {
            return;
        };
        for (index, id) in &m.peers {
            let missed = m.missed[*index as usize];
            if missed > 0 {
                id.hash(h);
                missed.hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, BTreeSet};
    use std::hash::{Hash, Hasher};

    use super::*;
    use crate::table::{Entry, NodeState};
    use hyperring_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The detector as it was before the peer view: the monitored set
    /// rebuilt as a `BTreeSet<NodeId>` at every tick, counts in a
    /// `BTreeMap<NodeId, u32>`. Kept as the reference the model test
    /// drives beside [`FailureState`].
    #[derive(Default)]
    struct Reference {
        running: bool,
        missed: BTreeMap<NodeId, u32>,
    }

    impl Reference {
        fn monitored(table: &NeighborTable) -> BTreeSet<NodeId> {
            let me = table.owner();
            let entries = table.iter().map(|(_, _, e)| e.node);
            let mut peers: BTreeSet<NodeId> = entries.chain(table.reverse_neighbors()).collect();
            peers.remove(&me);
            peers
        }

        fn tick(&mut self, table: &NeighborTable, threshold: u32) -> TickOutcome {
            let monitored = Self::monitored(table);
            self.missed.retain(|peer, _| monitored.contains(peer));
            let mut out = TickOutcome::default();
            for peer in monitored {
                let m = self.missed.get(&peer).copied().unwrap_or(0);
                if m >= threshold {
                    self.missed.remove(&peer);
                    out.dead.push((peer, m));
                } else {
                    self.missed.insert(peer, m + 1);
                    out.probe.push(peer);
                }
            }
            out
        }

        fn pong(&mut self, from: &NodeId) {
            self.missed.remove(from);
        }

        fn hash_state<H: Hasher>(&self, h: &mut H) {
            self.running.hash(h);
            for (peer, m) in &self.missed {
                peer.hash(h);
                m.hash(h);
            }
        }
    }

    fn digest(hash_state: impl FnOnce(&mut DefaultHasher)) -> u64 {
        let mut h = DefaultHasher::new();
        hash_state(&mut h);
        h.finish()
    }

    fn table_with(owner: &str, neighbor: &str) -> NeighborTable {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id(owner).unwrap();
        let other = space.parse_id(neighbor).unwrap();
        let mut t = NeighborTable::new(space, me);
        t.set_self_entries(NodeState::S);
        let k = me.csuf_len(&other);
        t.set(
            k,
            other.digit(k),
            Entry {
                node: other,
                state: NodeState::S,
            },
        );
        t
    }

    #[test]
    fn monitored_covers_primary_and_reverse_but_not_self() {
        let space = IdSpace::new(4, 3).unwrap();
        let mut t = table_with("000", "321");
        t.add_reverse(0, 0, space.parse_id("210").unwrap());
        t.add_reverse(0, 0, space.parse_id("000").unwrap());
        let probed = FailureState::default().tick(&t, 3).probe;
        let ids = ["210", "321"].map(|s| space.parse_id(s).unwrap());
        assert_eq!(probed, ids);
    }

    #[test]
    fn silent_peer_dies_after_threshold_ticks() {
        let t = table_with("000", "321");
        let peer = t.space().parse_id("321").unwrap();
        let mut fd = FailureState::default();
        for _ in 0..3 {
            let o = fd.tick(&t, 3);
            assert!(o.dead.is_empty());
            assert_eq!(o.probe, vec![peer]);
        }
        let o = fd.tick(&t, 3);
        assert_eq!(o.dead, vec![(peer, 3)]);
        assert!(o.probe.is_empty());
    }

    #[test]
    fn pong_resets_the_missed_count() {
        let t = table_with("000", "321");
        let peer = t.space().parse_id("321").unwrap();
        let mut fd = FailureState::default();
        fd.pong(&t, &peer); // before the first tick: nothing to reset
        for _ in 0..100 {
            let o = fd.tick(&t, 3);
            assert!(o.dead.is_empty(), "responsive peer must never die");
            fd.pong(&t, &peer);
        }
    }

    #[test]
    fn evicted_peer_is_forgotten() {
        let mut t = table_with("000", "321");
        let peer = t.space().parse_id("321").unwrap();
        let mut fd = FailureState::default();
        fd.tick(&t, 3);
        let k = t.owner().csuf_len(&peer);
        t.clear(k, peer.digit(k));
        let o = fd.tick(&t, 3);
        assert!(o.dead.is_empty());
        assert!(o.probe.is_empty());
    }

    /// One seeded sequence of table edits, ticks and pongs, through the
    /// detector and the reference side by side.
    fn run_against_reference(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (base, d) = [(4u16, 3usize), (16, 8), (10, 3)][rng.gen_range(0..3usize)];
        let space = IdSpace::new(base, d).unwrap();
        let threshold = rng.gen_range(1..4);
        let owner = space.random_id(&mut rng);
        let pool_size = rng.gen_range(2..40);
        let pool: Vec<NodeId> = std::iter::once(owner)
            .chain((1..pool_size).map(|_| space.random_id(&mut rng)))
            .collect();
        let mut t = NeighborTable::new(space, owner);
        t.set_self_entries(NodeState::S);
        let (mut fd, mut reference) = (FailureState::default(), Reference::default());
        let mut evicted: Vec<NodeId> = Vec::new();
        for step in 0..rng.gen_range(20..120) {
            let node = pool[rng.gen_range(0..pool.len())];
            let level = rng.gen_range(0..d);
            let digit = rng.gen_range(0..base) as u8;
            match rng.gen_range(0..100) {
                0..=24 => {
                    let (got, want) = (fd.tick(&t, threshold), reference.tick(&t, threshold));
                    assert_eq!(got, want, "seed {seed} step {step}");
                    assert!(got.probe.is_sorted());
                    // Half the time the engine's answer to a death: evict.
                    if rng.gen_bool(0.5) {
                        for (peer, _) in got.dead {
                            t.remove_reverse(&peer);
                            let stored: Vec<_> = t.iter().filter(|x| x.2.node == peer).collect();
                            for (l, j, _) in stored {
                                t.clear(l, j);
                            }
                            evicted.push(peer);
                        }
                    }
                }
                25..=49 => {
                    // Known, never-seen and just-evicted senders.
                    let from = match rng.gen_range(0..4) {
                        0 => space.random_id(&mut rng),
                        1 if !evicted.is_empty() => evicted[rng.gen_range(0..evicted.len())],
                        _ => node,
                    };
                    fd.pong(&t, &from);
                    reference.pong(&from);
                }
                50..=64 => {
                    // `node`'s high digits on the slot's desired suffix.
                    let digits: Vec<u8> = (0..d)
                        .map(|i| match i.cmp(&level) {
                            std::cmp::Ordering::Less => owner.digit(i),
                            std::cmp::Ordering::Equal => digit,
                            std::cmp::Ordering::Greater => node.digit(i),
                        })
                        .collect();
                    let node = space.id_from_digits(&digits).unwrap();
                    let state = NodeState::S;
                    t.set(level, digit, Entry { node, state });
                }
                65..=69 => t.clear(level, digit),
                70..=89 => t.add_reverse(level, digit, node),
                _ => {
                    t.remove_reverse(&node);
                }
            }
            assert_eq!(
                digest(|h| fd.hash_state(h)),
                digest(|h| reference.hash_state(h)),
                "seed {seed} step {step}"
            );
        }
    }

    #[test]
    fn detector_agrees_with_reference_over_seeded_sequences() {
        for seed in 0..1500 {
            run_against_reference(seed);
        }
    }
}
