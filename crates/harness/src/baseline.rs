//! The *optimistic join* baseline.
//!
//! §1 of the paper contrasts its join protocol with Pastry's optimistic
//! approach to concurrent joins ("the authors believe 'contention' to be
//! rare") and notes that SPRR raised — but did not address — the
//! consistency of tables under concurrent joins. This module implements
//! such an optimistic join, modeled on Pastry's: the joiner copies tables
//! level by level along a chain (as in the paper's *copying* phase), then
//! announces itself **once** to every node in its new table and declares
//! itself joined. There is no `T`/`S` state, no `JoinWaitMsg` arbitration,
//! no delayed reply from still-joining nodes, no reply-driven traversal of
//! the notification set, and no `SpeNotiMsg` repair.
//!
//! The announce round does elicit one reply carrying the receiver's table
//! (which the joiner absorbs to improve *its own* entries — Pastry's
//! joiner also receives state from its contacts), but nobody forwards
//! announcements. Real Pastry additionally maintains *leaf sets* that
//! paper over routing-table gaps; this baseline isolates exactly the
//! neighbor-table consistency question the paper studies.
//!
//! Expected outcome (and what the tests pin down): violations occur even
//! under light load whenever the notification set has members the copied
//! tables do not expose, and the violation count grows with the number of
//! *concurrent* dependent joins — while the paper's protocol stays at zero
//! violations in every run.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use hyperring_core::{Entry, NeighborTable, NodeState, TableSnapshot};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::{Actor, Context, RunReport, Simulator, Time, UniformDelay};

use crate::timeline::CompiledTimeline;

/// Messages of the optimistic protocol.
#[derive(Debug, Clone)]
enum OptMsg {
    Start {
        gateway: NodeId,
    },
    CpRst {
        level: u8,
        from: NodeId,
    },
    CpRly {
        level: u8,
        table: TableSnapshot,
    },
    /// One-shot announcement of the joiner (with its table).
    Announce {
        table: TableSnapshot,
    },
    /// Single reply to an announcement, carrying the receiver's table.
    AnnounceRly {
        table: TableSnapshot,
    },
}

#[derive(Debug, PartialEq, Eq)]
enum OptStatus {
    Copying,
    Done,
}

/// One optimistic node.
#[derive(Debug)]
struct OptNode {
    space: IdSpace,
    id: NodeId,
    table: NeighborTable,
    status: OptStatus,
    copy_level: usize,
    dir: Arc<HashMap<NodeId, usize>>,
}

impl OptNode {
    fn fill_if_empty(&mut self, node: NodeId) {
        if node == self.id {
            return;
        }
        let k = self.id.csuf_len(&node);
        if !self.table.is_filled(k, node.digit(k)) {
            self.table.set(
                k,
                node.digit(k),
                Entry {
                    node,
                    state: NodeState::S, // the optimistic protocol has no states
                },
            );
        }
    }

    /// Fills empty entries from a snapshot. Never triggers further
    /// messages — the optimistic protocol has no transitive repair.
    fn absorb(&mut self, table: &TableSnapshot) {
        for row in table.rows() {
            let u = row.entry.node;
            if u != self.id {
                self.fill_if_empty(u);
            }
        }
    }
}

impl Actor for OptNode {
    type Msg = OptMsg;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Context<'_, OptMsg>, _from: usize, msg: OptMsg) {
        let mut out: Vec<(NodeId, OptMsg)> = Vec::new();
        match msg {
            OptMsg::Start { gateway } => {
                out.push((
                    gateway,
                    OptMsg::CpRst {
                        level: 0,
                        from: self.id,
                    },
                ));
            }
            OptMsg::CpRst { level, from } => {
                out.push((
                    from,
                    OptMsg::CpRly {
                        level,
                        table: self.table.snapshot(),
                    },
                ));
            }
            OptMsg::CpRly { level, table } => {
                if self.status != OptStatus::Copying || level as usize != self.copy_level {
                    return;
                }
                let i = self.copy_level;
                for row in table.rows().filter(|r| r.level as usize == i) {
                    if !self.table.is_filled(i, row.digit) && row.entry.node != self.id {
                        self.table.set(i, row.digit, row.entry);
                    }
                }
                let next = table.get(i, self.id.digit(i));
                self.copy_level += 1;
                match next {
                    Some(e) if self.copy_level < self.space.digit_count() => {
                        out.push((
                            e.node,
                            OptMsg::CpRst {
                                level: self.copy_level as u8,
                                from: self.id,
                            },
                        ));
                    }
                    _ => {
                        // Copying done: install self entries, announce once
                        // to every node in the table, declare victory
                        // immediately (the optimism).
                        let me = self.id;
                        for l in 0..self.space.digit_count() {
                            self.table.set(
                                l,
                                me.digit(l),
                                Entry {
                                    node: me,
                                    state: NodeState::S,
                                },
                            );
                        }
                        self.status = OptStatus::Done;
                        let snap = self.table.snapshot();
                        let targets: BTreeSet<NodeId> = snap
                            .rows()
                            .map(|r| r.entry.node)
                            .filter(|u| *u != me)
                            .collect();
                        for u in targets {
                            out.push((
                                u,
                                OptMsg::Announce {
                                    table: snap.clone(),
                                },
                            ));
                        }
                    }
                }
            }
            OptMsg::Announce { table } => {
                let from = table.owner();
                self.fill_if_empty(from);
                self.absorb(&table);
                out.push((
                    from,
                    OptMsg::AnnounceRly {
                        table: self.table.snapshot(),
                    },
                ));
            }
            OptMsg::AnnounceRly { table } => {
                self.absorb(&table);
            }
        }
        for (to, msg) in out {
            if let Some(&idx) = self.dir.get(&to) {
                ctx.send(idx, msg);
            }
        }
    }
}

/// Runs the optimistic baseline over the members and joins of `c` to
/// quiescence and returns the final tables with the simulator's report.
/// This is the backend behind
/// [`Scenario::optimistic`](crate::Scenario::optimistic).
///
/// Each join starts at its scheduled time (spacing them far apart
/// approximates sequential joins, since a join completes within a handful
/// of 100 ms round trips). Message delays are uniform in `delay_bounds`
/// microseconds.
pub(crate) fn run_optimistic_tables(
    space: IdSpace,
    c: &CompiledTimeline,
    seed: u64,
    delay_bounds: (Time, Time),
) -> (Vec<NeighborTable>, RunReport) {
    let member_tables = hyperring_core::build_consistent_tables(space, &c.members);
    let mut ids: Vec<NodeId> = c.members.clone();
    ids.extend(c.joins.iter().map(|(id, ..)| *id));
    let dir: Arc<HashMap<NodeId, usize>> =
        Arc::new(ids.iter().enumerate().map(|(i, id)| (*id, i)).collect());

    let mut actors: Vec<OptNode> = member_tables
        .into_iter()
        .map(|t| OptNode {
            space,
            id: t.owner(),
            table: t,
            status: OptStatus::Done,
            copy_level: 0,
            dir: Arc::clone(&dir),
        })
        .collect();
    for (id, ..) in &c.joins {
        actors.push(OptNode {
            space,
            id: *id,
            table: NeighborTable::new(space, *id),
            status: OptStatus::Copying,
            copy_level: 0,
            dir: Arc::clone(&dir),
        });
    }
    let (lo, hi) = delay_bounds;
    let mut sim = Simulator::new(actors, UniformDelay::new(lo, hi), seed);
    for (id, gw, at) in &c.joins {
        let idx = dir[id];
        sim.inject_at(*at, idx, idx, OptMsg::Start { gateway: *gw });
    }
    let report = sim.run_limited(200_000_000);
    assert!(!report.truncated, "optimistic run did not quiesce");
    (sim.actors().map(|a| a.table.clone()).collect(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Scenario, Timeline, TimelineReport};

    /// Large-gap starts: joins are effectively sequential (a join finishes
    /// within ~1 s of simulated time; the gap is 60 s).
    const SEQ_GAP: Time = 60_000_000;

    /// `m` optimistic joins into 16 members, started `gap_us` apart.
    fn optimistic(space: IdSpace, m: usize, seed: u64, gap_us: Time) -> TimelineReport {
        let tl = (0..m as Time).fold(Timeline::new(), |tl, i| tl.at(i * gap_us).join(1).done());
        Scenario::new(space)
            .members(16)
            .seed(seed)
            .delay_bounds(1_000, 100_000)
            .optimistic()
            .run(tl)
    }

    #[test]
    fn paper_protocol_never_breaks() {
        let space = IdSpace::new(8, 4).unwrap();
        for seed in 0..5 {
            let r = Scenario::new(space)
                .members(24)
                .seed(seed)
                .delay_bounds(1_000, 100_000)
                .reachability()
                .run(Timeline::join_wave(24));
            assert!(r.consistent, "seed {seed}: {}", r.final_report);
            assert_eq!(r.unreachable_pairs, Some(0));
        }
    }

    #[test]
    fn concurrent_optimistic_joins_break() {
        // Dense dependence: small base, deep ids, many simultaneous joins.
        let space = IdSpace::new(4, 6).unwrap();
        let mut broke = 0;
        let mut total_fns = 0;
        for seed in 0..10 {
            let r = optimistic(space, 48, seed, 0);
            if !r.consistent {
                broke += 1;
                total_fns += r.false_negatives;
            }
        }
        assert!(
            broke > 0,
            "optimistic join survived 10 seeds of heavy concurrency"
        );
        assert!(total_fns > 0);
    }

    #[test]
    fn concurrency_hurts_more_than_sequential() {
        // The same workloads run (a) all-concurrent and (b) spaced out;
        // aggregate violations must be worse (or at least no better) when
        // concurrent, and the concurrent runs must break somewhere.
        let space = IdSpace::new(4, 6).unwrap();
        let mut concurrent = 0usize;
        let mut sequential = 0usize;
        for seed in 0..8 {
            concurrent += optimistic(space, 32, seed, 0).violations;
            sequential += optimistic(space, 32, seed, SEQ_GAP).violations;
        }
        assert!(
            concurrent >= sequential,
            "concurrent {concurrent} < sequential {sequential}"
        );
        assert!(concurrent > 0);
    }
}
