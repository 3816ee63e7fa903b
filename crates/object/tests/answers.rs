//! Known answers of a fixed storm: every lookup's root, hop count and
//! homes, the directory load, and what a rebind onto a shrunk network
//! moves and answers, each folded into a SHA-1 digest. A change to how
//! the store keeps or searches its directories must leave all of them as
//! they are.

use std::collections::BTreeSet;

use hyperring_core::build_consistent_tables;
use hyperring_id::{IdSpace, NodeId, Sha1};
use hyperring_object::{LookupHit, ObjectStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hex(d: [u8; 20]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

fn absorb_id(h: &mut Sha1, id: &NodeId) {
    h.update(id.as_bytes());
}

fn absorb_answer(h: &mut Sha1, hit: Option<LookupHit<'_>>) {
    let Some(hit) = hit else {
        h.update(b"miss");
        return;
    };
    absorb_id(h, &hit.root);
    h.update(&(hit.hops as u32).to_le_bytes());
    h.update(&(hit.homes.len() as u32).to_le_bytes());
    for home in hit.homes {
        absorb_id(h, home);
    }
}

#[test]
fn storm_answers_are_pinned() {
    let space = IdSpace::new(16, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(36);
    let mut ids = BTreeSet::new();
    while ids.len() < 512 {
        ids.insert(space.random_id(&mut rng));
    }
    let ids: Vec<NodeId> = ids.into_iter().collect();
    let tables = build_consistent_tables(space, &ids);
    let mut store = ObjectStore::over(space, &tables);

    let names: Vec<String> = (0..2000).map(|i| format!("file-{i}.dat")).collect();
    for name in &names {
        for _ in 0..2 {
            store.publish(ids[rng.gen_range(0..ids.len())], name);
        }
    }

    let mut h = Sha1::new();
    for _ in 0..20_000 {
        let from = ids[rng.gen_range(0..ids.len())];
        absorb_answer(
            &mut h,
            store.lookup(from, &names[rng.gen_range(0..names.len())]),
        );
    }
    assert_eq!(
        hex(h.finalize()),
        "dd295eca0e30a3846c453b25ceb52d67299e8353",
        "lookups"
    );

    let mut h = Sha1::new();
    for (root, rows) in store.directory_load() {
        absorb_id(&mut h, &root);
        h.update(&(rows as u32).to_le_bytes());
    }
    assert_eq!(
        hex(h.finalize()),
        "f2643ccf16a1723191e1d180aedd44f3697860cc",
        "directory load"
    );

    let unbound = store.unbind();
    let mut survivors = ids.clone();
    for _ in 0..32 {
        survivors.remove(rng.gen_range(0..survivors.len()));
    }
    let shrunk = build_consistent_tables(space, &survivors);
    let (store, moved) = unbound.bind(&shrunk);
    assert_eq!(moved, 158, "moved");
    let mut h = Sha1::new();
    for name in &names {
        let from = survivors[rng.gen_range(0..survivors.len())];
        absorb_answer(&mut h, store.lookup(from, name));
    }
    assert_eq!(
        hex(h.finalize()),
        "aa833b43a53e3f3ddbb901d453cfa68ea2602738",
        "answers after rebind"
    );
}
