//! A minimiser for failing `churn` trials: ddmin (Zeller and Hildebrandt's
//! delta debugging) over a compiled schedule's members, joins and crashes,
//! down to a 1-minimal schedule that still ends Definition-3.8
//! inconsistent — one that ends consistent without any one of its parts.
//! Every candidate is a fresh simulation from a freshly built `V`: small
//! scope, many trials.

use hyperring_id::{IdSpace, NodeId};

use crate::experiments::{poisson_timeline, PoissonChurnConfig};
use crate::timeline::{CompiledTimeline, Scenario, TimelineReport};

/// Trial `seed` of the `churn` configuration: 256 members, b = 4, d = 6,
/// half-life 40 s, churn to 14 s, horizon 30 s, with the detector and
/// retry options of `run_poisson_churn`'s repair arm. Returns the runner
/// and the compiled schedule.
pub fn churn_trial(seed: u64) -> (Scenario, CompiledTimeline) {
    let cfg = PoissonChurnConfig {
        members: 256,
        half_life_us: 40_000_000,
        churn_until: 14_000_000,
        horizon: 30_000_000,
        ..PoissonChurnConfig::default()
    };
    let space = IdSpace::new(cfg.base, cfg.digits).expect("valid space");
    let (timeline, ..) = poisson_timeline(&cfg, seed);
    (
        cfg.scenario(seed, true),
        timeline.compile(space, cfg.members, seed),
    )
}

/// `c` cut down to `parts`, positions in its members, then joins, then
/// crashes. A dropped member takes its crash and the joins through it
/// along; checkpoints go, since observations do not change the ending. (A
/// churn schedule has no leaves or storms.)
fn keep(c: &CompiledTimeline, parts: &[usize]) -> CompiledTimeline {
    let (m, j) = (c.members.len(), c.members.len() + c.joins.len());
    let pick = |at: std::ops::Range<usize>| parts.iter().copied().filter(move |p| at.contains(p));
    let members: Vec<NodeId> = pick(0..m).map(|p| c.members[p]).collect();
    let joins = pick(m..j).map(|p| c.joins[p - m]);
    let crashes = pick(j..usize::MAX).map(|p| c.crashes[p - j]);
    CompiledTimeline {
        joins: joins.filter(|(_, gw, _)| members.contains(gw)).collect(),
        crashes: crashes.filter(|(v, _)| members.contains(v)).collect(),
        members,
        checkpoints: Vec::new(),
        ..c.clone()
    }
}

/// The report of `c` under `s` if it ends inconsistent. A schedule that
/// kills every member is skipped: a `churn` trial never does (its victims
/// are all members and one always survives), and its joins need a live
/// member as gateway.
fn failing(s: &Scenario, c: &CompiledTimeline) -> Option<TimelineReport> {
    if c.crashes.len() >= c.members.len() {
        return None;
    }
    Some(s.run_compiled(c)).filter(|r| !r.consistent)
}

/// Shrinks `c` to a 1-minimal schedule that still ends inconsistent under
/// `s`, with its report; `None` when `c` itself ends consistent.
/// Deterministic: the same inputs try the same candidates in the same
/// order.
pub fn shrink(s: &Scenario, c: &CompiledTimeline) -> Option<(CompiledTimeline, TimelineReport)> {
    let mut parts: Vec<usize> = (0..c.members.len() + c.joins.len() + c.crashes.len()).collect();
    let mut report = failing(s, &keep(c, &parts))?;
    let mut n = 2;
    while parts.len() >= 2 {
        let chunks: Vec<&[usize]> = parts.chunks(parts.len().div_ceil(n)).collect();
        // Each chunk alone; then, past two chunks, each complement.
        let alone = chunks.iter().map(|ch| (ch.to_vec(), 2));
        let complements = (0..chunks.len()).filter(|_| chunks.len() > 2).map(|i| {
            let rest = chunks.iter().enumerate().filter(|&(j, _)| j != i);
            let parts = rest.flat_map(|(_, ch)| ch.iter().copied()).collect();
            (parts, (n - 1).max(2))
        });
        let found = alone
            .chain(complements)
            .find_map(|(cand, next)| failing(s, &keep(c, &cand)).map(|r| (cand, next, r)));
        match found {
            Some((cand, next, r)) => (parts, n, report) = (cand, next, r),
            None if n >= parts.len() => break,
            None => n = (2 * n).min(parts.len()),
        }
    }
    Some((keep(c, &parts), report))
}

/// A shrunk schedule as a row of ROADMAP item 1's table: trial seed,
/// members, joins, crashes (times in µs), and the violations it ends with.
pub fn row(seed: u64, c: &CompiledTimeline, r: &TimelineReport) -> String {
    let list = |items: Vec<String>| {
        if items.is_empty() {
            "—".to_string()
        } else {
            items.join("; ")
        }
    };
    let members: Vec<String> = c.members.iter().map(|m| m.to_string()).collect();
    let joins = c.joins.iter();
    let joins = joins.map(|(id, gw, at)| format!("{id} via {gw} @ {}", grouped(*at)));
    let crashes = c.crashes.iter();
    let crashes = crashes.map(|(id, at)| format!("{id} @ {}", grouped(*at)));
    let ends = r.final_report.violations().iter().map(|v| v.to_string());
    format!(
        "| shrunk | {seed} | {} | {} | {} | {} |",
        members.join(" "),
        list(joins.collect()),
        list(crashes.collect()),
        list(ends.collect())
    )
}

/// `t` with its digits in groups of three: `8 222 035`.
fn grouped(t: u64) -> String {
    let digits = t.to_string();
    let groups = digits.as_bytes().rchunks(3).rev();
    let groups: Vec<&str> = groups
        .map(|g| std::str::from_utf8(g).expect("digits"))
        .collect();
    groups.join(" ")
}
