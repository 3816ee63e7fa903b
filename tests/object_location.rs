//! Object location over tables produced by actual protocol runs: the
//! consistency guarantee (Theorem 1) is exactly what makes every node
//! resolve the same root for every object (deterministic location, P1).

use hyperring::core::{NodeInput, SimNetworkBuilder};
use hyperring::harness::distinct_ids;
use hyperring::id::IdSpace;
use hyperring::object::{roots_from_everywhere, ObjectStore};
use hyperring::sim::UniformDelay;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn unique_roots_after_concurrent_joins(
        b in 2u16..=16,
        d in 3usize..=8,
        n in 2usize..=20,
        m in 1usize..=16,
        seed in 0u64..5_000,
    ) {
        let space = IdSpace::new(b, d).unwrap();
        let cap = space.capacity().unwrap_or(u128::MAX);
        prop_assume!(cap >= (n + m) as u128 * 4);
        let ids = distinct_ids(space, n + m, seed);
        let mut builder = SimNetworkBuilder::new(space);
        for id in &ids[..n] {
            builder.add_member(*id);
        }
        for (i, id) in ids[n..].iter().enumerate() {
            builder.add_joiner(*id, ids[i % n], 0);
        }
        let mut net = builder.build(UniformDelay::new(100, 100_000), seed);
        net.run_limited(20_000_000);
        prop_assert!(net.all_in_system());

        let store = ObjectStore::over(space, net.tables_iter());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        for _ in 0..10 {
            use rand::Rng;
            let _ = rng.gen::<u8>();
            let oid = space.random_id(&mut rng);
            let roots = roots_from_everywhere(&store, &oid);
            prop_assert_eq!(roots.len(), 1, "object {} resolved to {:?}", oid, roots);
        }
    }
}

#[test]
fn publish_survives_a_join_wave() {
    let space = IdSpace::new(16, 6).unwrap();
    let ids = distinct_ids(space, 40, 77);
    let mut builder = SimNetworkBuilder::new(space);
    for id in &ids[..24] {
        builder.add_member(*id);
    }
    let mut net = builder.build(UniformDelay::new(1_000, 50_000), 1);
    net.run();
    let mut store = ObjectStore::over(space, net.tables_iter());
    for (i, name) in ["a.txt", "b.txt", "c.txt"].iter().enumerate() {
        store.publish(ids[i], name);
    }

    // A wave of 16 joins; republish directory rows onto the new tables.
    let mut builder = SimNetworkBuilder::new(space);
    builder.with_member_tables(net.tables());
    for id in &ids[24..] {
        builder.add_joiner(*id, ids[0], 0);
    }
    let mut net2 = builder.build(UniformDelay::new(1_000, 50_000), 2);
    net2.run();
    assert!(net2.all_in_system());
    let (store, _moved) = store.retarget(net2.tables_iter());

    for name in ["a.txt", "b.txt", "c.txt"] {
        for from in &ids {
            let hit = store.lookup(*from, name).expect("still locatable");
            assert_eq!(hit.homes.len(), 1);
        }
        let oid = store.object_id(name);
        assert_eq!(roots_from_everywhere(&store, &oid).len(), 1);
    }
}

#[test]
fn lookups_survive_graceful_leaves() {
    let space = IdSpace::new(16, 6).unwrap();
    let ids = distinct_ids(space, 30, 13);
    let mut builder = SimNetworkBuilder::new(space);
    for id in &ids {
        builder.add_member(*id);
    }
    let mut net = builder.build(UniformDelay::new(1_000, 40_000), 3);
    net.run();
    let mut store = ObjectStore::over(space, net.tables_iter());
    store.publish(ids[5], "keep.dat");
    store.publish(ids[6], "keep.dat");

    // One of the holders and two bystanders leave: release the table
    // borrow while the network mutates, then rebind.
    let unbound = store.unbind();
    for v in [ids[6], ids[10], ids[20]] {
        net.inject(net.now(), v, NodeInput::BeginLeave);
        net.run();
    }
    assert!(net.check_consistency().is_consistent());
    let (store, _moved) = unbound.bind(net.tables_iter());
    assert!(store.nodes().eq(net.tables_iter().map(|t| t.owner())));

    // The surviving copy is still found from every live node.
    for from in store.nodes().collect::<Vec<_>>() {
        let hit = store.lookup(from, "keep.dat").expect("copy survives");
        assert_eq!(hit.homes, vec![ids[5]]);
    }
}
