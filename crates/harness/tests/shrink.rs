//! The `churn` minimiser against a schedule whose failure is known:
//! ROADMAP item 1's S3′ (trial seed 0), padded with members, joins and
//! crashes that have nothing to do with it. When item 1's fix makes S3′
//! end consistent, this test needs another failing schedule.

use std::time::{Duration, Instant};

use hyperring_harness::shrink::{churn_trial, row, shrink};
use hyperring_harness::CompiledTimeline;
use hyperring_id::{IdSpace, NodeId};

fn id(s: &str) -> NodeId {
    IdSpace::new(4, 6).unwrap().parse_id(s).unwrap()
}

/// S3′, plus three members, four joins after its events (two through the
/// new members, two through its own) and two late crashes, one of them
/// of an S3′ member.
fn padded_s3_prime() -> CompiledTimeline {
    let mut members = vec!["312021", "303221", "311133", "102103"];
    let mut joins = vec![
        ("101133", "312021", 2_379_117),
        ("303133", "303221", 7_288_769),
    ];
    let mut crashes = vec![("311133", 7_113_811)];
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
        storms: vec![],
        keyed_storms: vec![],
        checkpoints: vec![],
        horizon: 30_000_000,
    }
}

const PAD_MEMBERS: [&str; 3] = ["020202", "231312", "000110"];
const PAD_JOINS: [(&str, &str, u64); 4] = [
    ("130000", "020202", 20_000_000),
    ("333310", "000110", 22_500_000),
    ("230000", "102103", 16_000_000),
    ("320000", "312021", 17_000_000),
];
const PAD_CRASHES: [(&str, u64); 2] = [("231312", 25_000_000), ("102103", 26_000_000)];

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
fn a_padded_s3_prime_shrinks_to_a_one_minimal_failing_schedule() {
    let started = Instant::now();
    let (scenario, _) = churn_trial(0);
    let padded = padded_s3_prime();
    let (shrunk, report) = shrink(&scenario, &padded).expect("the padded schedule fails");
    assert!(!report.consistent);
    assert!(!scenario.run_compiled(&shrunk).consistent);
    // Back to S3′'s members and crash; its second join goes too, since
    // the first join alone already ends inconsistent.
    assert_eq!(
        row(0, &shrunk, &report),
        "| shrunk | 0 | 312021 303221 311133 102103 | 101133 via 312021 @ 2 379 117 \
         | 311133 @ 7 113 811 | false negative: 102103 entry (1,3) empty but 101133 exists |"
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
    assert_eq!(row(0, &shrunk, &report), row(0, &again, &again_report));
    assert!(started.elapsed() < Duration::from_secs(60));
}
