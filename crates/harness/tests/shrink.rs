//! The `churn` minimiser against a schedule whose failure is known:
//! ROADMAP item 1's S3 (trial seed 14), padded with members, joins and
//! crashes that have nothing to do with it. When item 1's fix makes S3
//! end consistent, this test needs another failing schedule. Beside it,
//! the trial seeds the repair's refill from its own reverse set fixed are
//! pinned consistent.

use std::time::{Duration, Instant};

use hyperring_harness::shrink::{churn_trial, row, shrink};
use hyperring_harness::CompiledTimeline;
use hyperring_id::{IdSpace, NodeId};

fn id(s: &str) -> NodeId {
    IdSpace::new(4, 6).unwrap().parse_id(s).unwrap()
}

/// S3, plus three members, four joins after its events (two through the
/// new members, two through its own) and two late crashes, one of them
/// of an S3 member. The new members all end in 0, a digit no S3 id ends
/// in: members that share S3's last digits change how its joins run.
fn padded_s3() -> CompiledTimeline {
    let mut members = vec!["101022", "130113", "323231"];
    let mut joins = vec![
        ("203231", "101022", 5_685_560),
        ("133231", "130113", 13_840_178),
    ];
    let mut crashes = vec![("323231", 13_881_362)];
    members.extend(PAD_MEMBERS);
    joins.extend(PAD_JOINS);
    crashes.extend(PAD_CRASHES);
    CompiledTimeline {
        members: members.into_iter().map(id).collect(),
        joins: joins
            .into_iter()
            .map(|(j, g, at)| (id(j), id(g), at))
            .collect(),
        crashes: crashes.into_iter().map(|(v, at)| (id(v), at)).collect(),
        leaves: vec![],
        keyed_storms: vec![],
        checkpoints: vec![],
        horizon: 30_000_000,
    }
}

const PAD_MEMBERS: [&str; 3] = ["021100", "332200", "110000"];
const PAD_JOINS: [(&str, &str, u64); 4] = [
    ("130000", "021100", 20_000_000),
    ("333310", "110000", 22_500_000),
    ("230000", "130113", 16_000_000),
    ("320000", "101022", 17_000_000),
];
const PAD_CRASHES: [(&str, u64); 2] = [("332200", 25_000_000), ("130113", 26_000_000)];

/// `c` without member `m`, its crash and the joins through it.
fn without_member(c: &CompiledTimeline, m: NodeId) -> CompiledTimeline {
    let mut out = c.clone();
    out.members.retain(|&x| x != m);
    out.joins.retain(|&(_, gw, _)| gw != m);
    out.crashes.retain(|&(v, _)| v != m);
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release test: CI runs it optimised")]
fn a_padded_s3_shrinks_to_a_one_minimal_failing_schedule() {
    let started = Instant::now();
    let (scenario, _) = churn_trial(14);
    let padded = padded_s3();
    let (shrunk, report) = shrink(&scenario, &padded).expect("the padded schedule fails");
    assert!(!report.consistent);
    assert!(!scenario.run_compiled(&shrunk).consistent);
    // Back to S3's members, joins and crash, and its two violations.
    assert_eq!(
        row(14, &shrunk, &report),
        "| shrunk | 14 | 101022 130113 323231 | 203231 via 101022 @ 5 685 560; \
         133231 via 130113 @ 13 840 178 | 323231 @ 13 881 362 | false negative: 203231 \
         entry (4,3) empty but 133231 exists; false negative: 133231 entry (4,0) empty \
         but 203231 exists |"
    );
    // Without any one part it ends consistent.
    let mut smaller: Vec<CompiledTimeline> = Vec::new();
    for &m in &shrunk.members {
        smaller.push(without_member(&shrunk, m));
    }
    for i in 0..shrunk.joins.len() {
        let mut c = shrunk.clone();
        c.joins.remove(i);
        smaller.push(c);
    }
    for i in 0..shrunk.crashes.len() {
        let mut c = shrunk.clone();
        c.crashes.remove(i);
        smaller.push(c);
    }
    for c in smaller.iter().filter(|c| !c.members.is_empty()) {
        assert!(scenario.run_compiled(c).consistent, "not 1-minimal: {c:?}");
    }
    // The same schedule, the same row.
    let (again, again_report) = shrink(&scenario, &padded).unwrap();
    assert_eq!(row(14, &shrunk, &report), row(14, &again, &again_report));
    assert!(started.elapsed() < Duration::from_secs(60));
}

/// Trial seeds 18 and 38 of `churn` (ROADMAP item 1's rows 18 and 38)
/// each ended with one slot empty while a live carrier of its suffix
/// existed, until repair refilled a vacated slot from its owner's own
/// reverse set. Both end consistent, with no reference to a dead node.
#[test]
#[cfg_attr(debug_assertions, ignore = "release test: CI runs it optimised")]
fn trials_18_and_38_end_consistent() {
    for seed in [18, 38] {
        let (scenario, timeline) = churn_trial(seed);
        let r = scenario.run_compiled(&timeline);
        assert!(r.consistent, "trial {seed}: {} violations", r.violations);
        assert_eq!(r.dead_refs, 0, "trial {seed}");
    }
}
