//! The workloads' scenarios and the traced form of their build.

use crate::trace::Tracer;
use dde_ring::{Network, Placement, RingId};
use dde_sim::build::{BuiltScenario, DataTruth, STREAMING_TRUTH_ITEMS};
use dde_sim::{NodeLayout, PlacementMode, Scenario};
use dde_stats::rng::{splitmix64, Component, SeedSequence};
use dde_stats::streaming::StreamingTruth;
use dde_stats::Ecdf;
use rand::Rng;

/// Items per peer (every workload).
const ITEMS_PER_PEER: usize = 20;

/// The `Scenario::default()` shape at `peers` peers and 20 items per peer.
pub fn scenario(peers: usize, seed: u64) -> Scenario {
    Scenario::default().with_peers(peers).with_items(peers * ITEMS_PER_PEER).with_seed(seed)
}

/// `build_fresh`, step by step in the same RNG order, with spans around
/// `Network::build` and `Network::bulk_load`. Traced runs check the result
/// against `build_fresh` with [`net_digest`].
///
/// # Panics
/// Panics on a scenario outside the default shape (uniform ids, range
/// placement, no flash crowd, capacity or partition axis).
pub fn build_traced(scenario: &Scenario, tr: &mut Tracer) -> BuiltScenario {
    assert!(
        scenario.layout == NodeLayout::UniformIds
            && scenario.placement == PlacementMode::Range
            && scenario.flash_crowd == 0
            && scenario.capacity.is_none()
            && scenario.partition.is_none(),
        "the traced build covers the default scenario shape only"
    );
    let (lo, hi) = scenario.domain;
    let seq = SeedSequence::new(scenario.seed);
    let truth = scenario.distribution.build(lo, hi);
    tr.open("setup.data");
    let mut data_rng = seq.stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..scenario.items).map(|_| truth.sample(&mut data_rng)).collect();
    let mut id_rng = seq.stream(Component::NodeIds, 0);
    let ids: Vec<RingId> = (0..scenario.peers).map(|_| RingId(id_rng.gen())).collect();
    tr.close();
    tr.open("ring.build");
    let mut net = Network::build(ids, Placement::range(lo, hi));
    net.set_summary_buckets(scenario.summary_buckets);
    tr.close();
    tr.add("ring.build.peers", net.len() as u64);
    tr.add("ring.build.items", data.len() as u64);
    tr.open("ring.build.load");
    net.bulk_load(&data);
    tr.close();
    net.stats_mut().reset();
    tr.open("setup.truth");
    let data_truth = if scenario.items >= STREAMING_TRUTH_ITEMS {
        DataTruth::Analytic(StreamingTruth::new(
            scenario.distribution.build(lo, hi),
            net.total_items(),
        ))
    } else {
        DataTruth::Empirical(Ecdf::new(data))
    };
    tr.close();
    BuiltScenario { net, truth, data_truth, scenario: scenario.clone() }
}

/// Digest of a built network: size, items and a hash over ids and store
/// contents.
pub fn net_digest(net: &Network) -> String {
    let mut h = 0u64;
    for id in net.ids() {
        h = splitmix64(h ^ id.0);
        let node = net.node(id).expect("listed id is alive");
        for &x in node.store.values() {
            h = splitmix64(h ^ x.to_bits());
        }
    }
    format!("{}/{}/{h:016x}", net.len(), net.total_items())
}
