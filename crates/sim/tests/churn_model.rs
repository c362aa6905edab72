//! `ChurnBatch::apply` checked against a specification: the naive ring
//! model in `ring_model/`, which applies the same events one at a time to a
//! `BTreeMap` and computes routing state from the definition of a Chord
//! ring.
//!
//! After every window the batch must leave the model's membership, every
//! store bit for bit, every predecessor, successor list and all 64
//! fingers, and the model's message charges (the whole `MessageStats`
//! delta: Handoff/Stabilize counts and total bytes, nothing else). Its
//! reported counts, handoff volume and crash losses must equal the
//! model's, and seeded lookups must resolve to the model's owner. Epochs
//! are out of scope: the model has none.
//!
//! Each case applies several consecutive windows, so later batches run on a
//! ring that earlier batches mutated. Property-tested over seeds × sizes ×
//! every node layout the scenario builders emit, plus a pinned 4096-peer
//! adversarial cell and a hand-built window of order-dependent events.

mod ring_model;

use dde_ring::id::RING_BITS;
use dde_ring::{ChurnApplied, ChurnBatch, ChurnEvent, Network, Placement, RepairStats, RingId};
use dde_sim::{build_fresh, NodeLayout, Scenario};
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::Rng;
use ring_model::RingModel;

/// Ring ids drawn from a real scenario build, so the sweep covers the id
/// *shapes* the suite actually runs, not just uniform entropy.
fn layout_ids(seed: u64, peers: usize, layout: NodeLayout) -> Vec<RingId> {
    let s =
        Scenario::default().with_peers(peers).with_items(1_000).with_seed(seed).with_layout(layout);
    build_fresh(&s).net.ids().collect()
}

/// A mixed membership window: ~6% joins, ~3% leaves, ~3% crashes (at least
/// two joins and one of each departure), all on distinct ids so the batch's
/// one-event-per-id policy is not exercised (its skip behavior has its own
/// pinned unit tests).
fn event_window(net: &Network, seed: u64, window: u64) -> Vec<ChurnEvent> {
    let mut rng = SeedSequence::new(seed).stream(Component::Churn, 11 + window);
    let ids: Vec<RingId> = net.ids().collect();
    let p = ids.len();
    let joins = (p / 16).max(2);
    let deaths = (p / 16).max(2);
    let mut events = Vec::new();
    for _ in 0..joins {
        loop {
            let id = RingId(rng.gen());
            if !net.is_alive(id) && !events.iter().any(|e: &ChurnEvent| e.id() == id) {
                events.push(ChurnEvent::Join(id));
                break;
            }
        }
    }
    // Distinct victims, spread across the ring.
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < deaths {
        let v = rng.gen_range(0..p);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    for (k, &v) in victims.iter().enumerate() {
        if k % 2 == 0 {
            events.push(ChurnEvent::Leave(ids[v]));
        } else {
            events.push(ChurnEvent::Crash(ids[v]));
        }
    }
    // Interleave so joins and departures alternate through the window
    // (order-dependent heir/donor resolution is the hard part).
    let mut shuffled = Vec::with_capacity(events.len());
    while !events.is_empty() {
        let i = rng.gen_range(0..events.len());
        shuffled.push(events.swap_remove(i));
    }
    shuffled
}

/// Applies `events` to `net` as one batch and to a model of `net` one at a
/// time, then checks that the two agree on everything observable.
fn apply_and_check(net: &mut Network, events: &[ChurnEvent], seed: u64, ctx: &str) -> ChurnApplied {
    let mut model = RingModel::of(net);
    let expected = model.apply(events);
    let stats_before = net.stats().clone();
    let mut batch = ChurnBatch::new();
    for &ev in events {
        batch.push(ev);
    }
    let applied = batch.apply(net);
    assert!(batch.is_empty(), "{ctx}: the batch drains its queue");
    assert_eq!(net.stats().since(&stats_before), model.stats, "{ctx}: message charges differ");
    let reported = ChurnApplied { repair: RepairStats::default(), ..applied };
    assert_eq!(reported, expected, "{ctx}: reported outcome differs");
    assert_matches_model(net, &model, seed, ctx);
    expected
}

/// Membership, stores, routing state and lookup owners, against the model.
fn assert_matches_model(net: &mut Network, model: &RingModel, seed: u64, ctx: &str) {
    let ids = model.ids();
    assert_eq!(net.ids().collect::<Vec<_>>(), ids, "{ctx}: membership differs");
    for &id in &ids {
        let node = net.node(id).expect("alive in the model");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(node.store.values()), bits(model.store(id)), "{ctx}: {id}: store");
        assert_eq!(node.predecessor, Some(model.predecessor(id)), "{ctx}: {id}: predecessor");
        assert_eq!(node.successors, model.successors(id), "{ctx}: {id}: successor list");
        let fingers: Vec<Option<RingId>> =
            (0..RING_BITS as usize).map(|f| node.fingers.get(f)).collect();
        let expected: Vec<Option<RingId>> = model.fingers(id).into_iter().map(Some).collect();
        assert_eq!(fingers, expected, "{ctx}: {id}: fingers");
    }
    let mut rng = SeedSequence::new(seed).stream(Component::Workload, 7);
    for probe in 0..64 {
        let from = ids[rng.gen_range(0..ids.len())];
        let target = RingId(rng.gen());
        let found = net.lookup(from, target).expect("a perfect ring routes");
        assert_eq!(found.owner, model.owner(target), "{ctx}: lookup {probe} of {target}");
    }
}

/// A bulk-built ring on `layout`'s ids with 20 items per peer.
fn loaded_ring(seed: u64, peers: usize, layout: NodeLayout) -> Network {
    let mut net =
        Network::build_bulk(layout_ids(seed, peers, layout), Placement::range(0.0, 1000.0));
    let mut rng = SeedSequence::new(seed).stream(Component::Dataset, 5);
    let data: Vec<f64> = (0..peers * 20).map(|_| rng.gen_range(0.0..1000.0)).collect();
    net.bulk_load(&data);
    net
}

/// `windows` consecutive random windows, each checked against the model.
fn check(seed: u64, peers: usize, layout: NodeLayout, windows: u64) {
    let mut net = loaded_ring(seed, peers, layout);
    for w in 0..windows {
        let events = event_window(&net, seed, w);
        let ctx = format!("seed {seed} {peers} peers {layout:?} window {w}");
        apply_and_check(&mut net, &events, seed, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Seeds × layouts at the sizes the quick suite runs, four windows deep.
    #[test]
    fn batched_churn_matches_the_ring_model(
        seed in 0u64..(1u64 << 32),
        peers in prop_oneof![Just(16usize), Just(256usize)],
        layout in prop_oneof![
            Just(NodeLayout::UniformIds),
            Just(NodeLayout::LoadBalanced),
            Just(NodeLayout::Adversarial),
        ],
    ) {
        check(seed, peers, layout, 4);
    }
}

/// One deep cell at the mega-scale shape's edge: 4096 peers, adversarial
/// layout, ~500-event windows. Pinned seed to keep it out of the proptest
/// budget.
#[test]
fn batched_churn_matches_the_ring_model_at_4096() {
    check(0xF12B, 4_096, NodeLayout::Adversarial, 3);
}

/// A hand-built window whose outcome depends on event order: a join into
/// the arc a crash just vacated, a joiner taking items a prior joiner just
/// received, and heirs that depart after inheriting (one crashes and loses
/// its inheritance, one leaves and passes it on). Two random windows
/// follow on the mutated ring.
#[test]
fn order_dependent_window_matches_the_ring_model() {
    let step = u64::MAX / 33;
    let ids: Vec<RingId> = (1..=32).map(|i| RingId(i * step)).collect();
    let mut net = Network::build(ids.clone(), Placement::range(0.0, 100.0));
    net.bulk_load(&(0..640).map(|i| f64::from(i) * 100.0 / 640.0).collect::<Vec<_>>());
    let events = [
        ChurnEvent::Join(RingId(ids[4].0 + step / 3)),
        ChurnEvent::Join(RingId(ids[4].0 + step / 6)), // takes from the joiner above
        ChurnEvent::Leave(ids[10]),
        ChurnEvent::Crash(ids[11]), // the heir of ids[10] dies with its inheritance
        ChurnEvent::Join(RingId(ids[11].0 + 7)), // lands where the crash just vacated
        ChurnEvent::Leave(ids[12]),
        ChurnEvent::Leave(ids[20]),
        ChurnEvent::Leave(ids[21]), // hands on what it inherited from ids[20]
        ChurnEvent::Join(RingId(ids[30].0 + step / 2)),
        ChurnEvent::Crash(ids[0]),
    ];
    let out = apply_and_check(&mut net, &events, 33, "order-dependent window");
    assert_eq!((out.joins, out.leaves, out.crashes, out.skipped), (4, 4, 2, 0), "all apply");
    assert!(out.items_moved > 0 && !out.lost.is_empty(), "{out:?}");
    for w in 0..2 {
        let events = event_window(&net, 33, w);
        apply_and_check(&mut net, &events, 33, &format!("after the order-dependent window, {w}"));
    }
}
