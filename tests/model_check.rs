//! Bounded model checking of the join protocol: for tiny scenarios,
//! exhaustively explore **every** reachable message interleaving
//! (reliable, unordered delivery — exactly the paper's assumption (iii))
//! and assert that every quiescent state satisfies Theorems 1 and 2.
//!
//! This is stronger than any number of randomized simulations: within the
//! explored scenario there is *no* delivery order that breaks consistency.
//! State-space blowup is tamed by memoizing a digest of the complete
//! network state plus the multiset of in-flight messages.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use hyperring::core::{
    check_consistency, Effects, JoinEngine, Message, NeighborTable, ProtocolOptions, Status,
};
use hyperring::id::{IdSpace, NodeId};
use hyperring::net::transport::encode_plain;

/// One in-flight message.
#[derive(Clone)]
struct Flight {
    from: NodeId,
    to: NodeId,
    msg: Message,
}

#[derive(Clone)]
struct State {
    engines: Vec<JoinEngine>,
    pending: Vec<Flight>,
}

impl State {
    /// Digest of every engine's state plus the pending multiset, each
    /// message hashed as the `[to][frame]` datagram the wire codec writes
    /// for it (every field of every kind) into the reused `buf`.
    fn digest(&self, space: &IdSpace, buf: &mut Vec<u8>) -> u64 {
        let mut h = DefaultHasher::new();
        for e in &self.engines {
            e.hash_state(&mut h);
            0xabu8.hash(&mut h);
        }
        // Order-independent digest of the pending multiset.
        let mut msg_digests: Vec<u64> = self
            .pending
            .iter()
            .map(|f| {
                buf.clear();
                encode_plain(space, f.to, f.from, &f.msg, buf);
                let mut mh = DefaultHasher::new();
                buf.hash(&mut mh);
                mh.finish()
            })
            .collect();
        msg_digests.sort_unstable();
        msg_digests.hash(&mut h);
        h.finish()
    }
}

struct Explorer {
    space: IdSpace,
    buf: Vec<u8>,
    visited: HashSet<u64>,
    quiescent: usize,
    explored: usize,
    cap: usize,
    truncated: bool,
}

impl Explorer {
    fn deliver(&mut self, mut state: State, idx: usize) -> State {
        let f = state.pending.swap_remove(idx);
        let pos = state
            .engines
            .iter()
            .position(|e| e.id() == f.to)
            .expect("known receiver");
        let mut out = Effects::new();
        state.engines[pos].handle(f.from, f.msg, &mut out);
        let from = state.engines[pos].id();
        for (to, msg) in out.drain_sends() {
            state.pending.push(Flight { from, to, msg });
        }
        state
    }

    fn explore(&mut self, state: State) {
        if self.explored >= self.cap {
            self.truncated = true;
            return;
        }
        let digest = state.digest(&self.space, &mut self.buf);
        if !self.visited.insert(digest) {
            return;
        }
        self.explored += 1;
        if state.pending.is_empty() {
            // Quiescent: the theorems must hold *here*, whatever the path.
            self.quiescent += 1;
            assert!(
                state.engines.iter().all(|e| e.status() == Status::InSystem),
                "quiescent state with a stuck joiner (Theorem 2 violated)"
            );
            let tables: Vec<NeighborTable> =
                state.engines.iter().map(|e| e.table().clone()).collect();
            let report = check_consistency(self.space, &tables);
            assert!(
                report.is_consistent(),
                "quiescent state inconsistent (Theorem 1 violated): {report}"
            );
            return;
        }
        for i in 0..state.pending.len() {
            let next = self.deliver(state.clone(), i);
            self.explore(next);
        }
    }
}

/// Scales a state cap down in debug builds (the checker is ~10× slower
/// unoptimized; exhaustiveness is still claimed only when the run does
/// not truncate).
fn scaled(cap: usize) -> usize {
    if cfg!(debug_assertions) {
        cap / 8
    } else {
        cap
    }
}

/// Exhaustively checks a scenario: `members` become a consistent network,
/// `joiners` all start concurrently (each through the given gateway
/// index). Returns (quiescent states, explored states, truncated?).
fn check_scenario(
    b: u16,
    d: usize,
    members: &[&str],
    joiners: &[(&str, usize)],
    cap: usize,
) -> (usize, usize, bool) {
    let space = IdSpace::new(b, d).unwrap();
    let member_ids: Vec<NodeId> = members.iter().map(|s| space.parse_id(s).unwrap()).collect();
    let tables = hyperring::core::build_consistent_tables(space, &member_ids);
    let mut engines: Vec<JoinEngine> = tables
        .into_iter()
        .map(|t| JoinEngine::new_member(space, ProtocolOptions::new(), t))
        .collect();
    let mut pending = Vec::new();
    for (s, gw) in joiners {
        let id = space.parse_id(s).unwrap();
        let mut e = JoinEngine::new_joiner(space, ProtocolOptions::new(), id);
        let mut out = Effects::new();
        e.start_join(member_ids[*gw], &mut out);
        for (to, msg) in out.drain_sends() {
            pending.push(Flight { from: id, to, msg });
        }
        engines.push(e);
    }
    let mut ex = Explorer {
        space,
        buf: Vec::new(),
        visited: HashSet::new(),
        quiescent: 0,
        explored: 0,
        cap,
        truncated: false,
    };
    ex.explore(State { engines, pending });
    assert!(ex.quiescent > 0, "no quiescent state reached");
    (ex.quiescent, ex.explored, ex.truncated)
}

#[test]
fn exhaustive_single_join() {
    // One member, one joiner: small enough to be fully exhaustive.
    let (q, explored, truncated) = check_scenario(2, 2, &["00"], &[("11", 0)], scaled(1_000_000));
    assert!(!truncated, "single join must be fully explorable");
    assert!(q >= 1);
    assert!(explored > 1);
}

#[test]
fn exhaustive_two_independent_joins() {
    // b=2, d=2, member 00; joiners 01 and 10 — different notification
    // sets, fully exhaustive.
    let (q, _, truncated) =
        check_scenario(2, 2, &["00"], &[("01", 0), ("10", 0)], scaled(2_000_000));
    assert!(!truncated, "two-join scenario must be fully explorable");
    assert!(q >= 1);
}

#[test]
fn exhaustive_two_dependent_joins() {
    // The hard case at minimum scale: joiners 01 and 11 share the suffix
    // "1" which no member carries — the same C-set tree, racing for the
    // members' (0, 1) entries. Every interleaving must converge
    // consistently.
    let (q, explored, truncated) = check_scenario(
        2,
        2,
        &["00", "10"],
        &[("01", 0), ("11", 1)],
        scaled(4_000_000),
    );
    assert!(!truncated, "dependent-join scenario exceeded the state cap");
    assert!(q >= 1);
    // Sanity: the race genuinely branches (many distinct states).
    assert!(explored > 100, "only {explored} states explored");
}

#[test]
fn bounded_three_dependent_joins() {
    // Three joiners ending in "1" against one member (b=2, d=3): bounded
    // exploration — every state visited within the cap must be sound.
    let (q, explored, _truncated) = check_scenario(
        2,
        3,
        &["000"],
        &[("001", 0), ("011", 0), ("111", 0)],
        scaled(300_000),
    );
    assert!(q >= 1 || explored >= 300_000);
}
