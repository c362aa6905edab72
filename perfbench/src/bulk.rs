//! `bulk-churn`: churn at mega-scale on a bulk-built 2^16-peer ring (the
//! F12b shape).
//!
//! Each round applies one `ChurnBatch` membership window
//! (`f12b_churn::membership_batch`), turns 5 % of the items over
//! (`f12b_churn::item_turnover`), journals both into the `StreamingTruth`
//! and runs one k = 64 estimate scored against the journaled truth.
//! `ChurnBatch`, item turnover and the streaming-truth journals do all the
//! work here and none elsewhere. A unit is one round; an episode is
//! `ROUNDS` rounds from a fork of the built network.
//!
//! Item turnover slows down round after round (`churn_remove_item` scans
//! forward from a random position for a non-empty store, so removal drains
//! the small stores). The timed episodes stop before that cliff so their
//! times stay steady; a traced run adds one `CLIFF_ROUNDS`-round episode and
//! reports turnover ns per item of its first and last round.

use crate::probe::{estimate_traced, score_estimate};
use crate::scenario::scenario;
use crate::trace::{clock, ns_since, Tracer};
use crate::{Det, EpisodeOut, HopStat, Shape, Workload};
use dde_core::{DfDde, DfDdeConfig};
use dde_ring::ChurnBatch;
use dde_sim::build::{BuiltScenario, DataTruth};
use dde_sim::experiments::f12b_churn::{item_turnover, membership_batch};
use dde_sim::Scenario;
use dde_stats::assert::KsBand;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::streaming::StreamingTruth;
use rand::Rng;

/// Peers: 2^16, which keeps 1.3 M items on the analytic-truth path.
const PEERS: usize = 1 << 16;
const K: usize = 64;
/// Rounds per timed episode.
const ROUNDS: u64 = 4;
/// Rounds of the traced turnover-cliff episode.
const CLIFF_ROUNDS: u64 = 10;
/// Episode id of the cliff episode (never a timed one).
const CLIFF_EPISODE: u64 = 1 << 32;
/// Episodes in the simulated-metric prefix; these also run the journal
/// conservation check.
const PREFIX_EPISODES: u64 = 4;
/// F12b's systematic allowance: F12's 8-bucket budget plus staleness.
const SYSTEMATIC: f64 = 0.06;

/// The `bulk-churn` workload.
pub struct BulkChurn;

impl Workload for BulkChurn {
    fn shape(&self) -> Shape {
        Shape {
            k: K,
            unit: "round",
            prefix_episodes: PREFIX_EPISODES,
            setup_reps: 5,
            hop_stat: HopStat::P99,
            throughput_unit: "rounds",
            tail: 0.9,
        }
    }

    fn scenario(&self, seed: u64) -> Scenario {
        scenario(PEERS, seed)
    }

    fn episode(&self, base: &mut BuiltScenario, seed: u64, ep: u64, tr: &mut Tracer) -> EpisodeOut {
        churn_rounds(base, seed, ep, ROUNDS, ep < PREFIX_EPISODES, tr).0
    }

    fn trace_extra(&self, base: &mut BuiltScenario, seed: u64, tr: &mut Tracer) {
        let quiet = &mut Tracer::new(false);
        let (_, turnover) = churn_rounds(base, seed, CLIFF_EPISODE, CLIFF_ROUNDS, false, quiet);
        let (first_ns, first_items) = turnover[0];
        let (last_ns, last_items) = turnover[turnover.len() - 1];
        tr.add("ring.turnover.first_ns", first_ns);
        tr.add("ring.turnover.first_items", first_items);
        tr.add("ring.turnover.last_ns", last_ns);
        tr.add("ring.turnover.last_items", last_items);
    }

    fn gate(&self, det: &Det, gate: &mut Vec<String>) {
        let ks = det.ks_sum / det.units.max(1) as f64;
        if let Err(v) = KsBand::new(K, 1e-3).with_systematic(SYSTEMATIC).check(ks) {
            gate.push(format!("bulk-churn ks_mean: {v}"));
        }
    }
}

/// Runs `rounds` churn rounds of episode `ep` on a fork of `base`; with
/// `check`, verifies item conservation against the journaled truth.
/// Returns the episode and each round's turnover `(ns, items)`.
fn churn_rounds(
    base: &BuiltScenario,
    seed: u64,
    ep: u64,
    rounds: u64,
    check: bool,
    tr: &mut Tracer,
) -> (EpisodeOut, Vec<(u64, u64)>) {
    let mut out = EpisodeOut::default();
    let mut turnover = Vec::new();
    let (lo, hi) = base.scenario.domain;
    // Each episode churns its own fork under its own seed, so rounds of
    // different episodes see different events.
    let ep_seed = SeedSequence::new(seed).stream(Component::Churn, (1 << 40) + ep).gen::<u64>();
    let mut built = BuiltScenario {
        net: base.net.fork(),
        truth: base.scenario.distribution.build(lo, hi),
        data_truth: DataTruth::Analytic(StreamingTruth::new(
            base.scenario.distribution.build(lo, hi),
            base.net.total_items(),
        )),
        scenario: base.scenario.clone().with_seed(ep_seed),
    };
    let est = DfDde::new(DfDdeConfig::with_probes(K));
    let mut est_rng = SeedSequence::new(seed).stream(Component::Estimator, ep);
    let mut batch = ChurnBatch::new();
    let mut events = 0u64;
    for round in 0..rounds {
        tr.set_unit(ep * rounds + round);
        let before = built.net.stats().clone();
        let t0 = clock();
        tr.open("unit");

        tr.open("ring.churn");
        let applied = membership_batch(&mut built.net, &mut batch, ep_seed, round);
        tr.close();
        let ev = applied.joins + applied.leaves + applied.crashes;
        events += ev;
        tr.add("ring.churn.events", ev);
        tr.add("ring.churn.finger_writes", applied.repair.finger_writes);
        tr.add("ring.churn.failed", applied.skipped);

        let t_turn = clock();
        tr.open("ring.turnover");
        let (inserted, removed) = item_turnover(&mut built, round);
        tr.close();
        let turned = (inserted.len() + removed.len()) as u64;
        turnover.push((ns_since(t_turn), turned));

        tr.open("stats.streaming");
        if let DataTruth::Analytic(truth) = &mut built.data_truth {
            truth.journal_adds(inserted);
            truth.journal_removes(removed.into_iter().chain(applied.lost));
        }
        tr.close();

        let initiator = built.net.random_peer(&mut est_rng).expect("network has peers");
        let got = estimate_traced(&est, &mut built.net, initiator, &mut est_rng, tr);
        let mut det = Det::default();
        score_estimate(&got, &built.data_truth, &mut det, tr);
        tr.close();
        out.unit_ns.push(ns_since(t0));

        // Messages of the whole round: membership, turnover handoffs
        // and the estimate.
        det.msgs = built.net.stats().since(&before).total_messages();
        det.attempted += ev + turned;
        out.det.absorb(&det);
    }

    if check {
        check_conservation(base, &built, ep, tr, &mut out.gate);
    }
    if events == 0 {
        out.gate.push(format!("episode {ep}: no membership events applied"));
    }
    out.work = rounds;
    (out, turnover)
}

/// Item conservation: the journaled truth counts exactly the live items,
/// and the built stores plus the journals are exactly the live data —
/// streaming them against the generator gives the same KS, to the bit, as
/// streaming the live stores with empty journals.
fn check_conservation(
    base: &BuiltScenario,
    built: &BuiltScenario,
    ep: u64,
    tr: &mut Tracer,
    gate: &mut Vec<String>,
) {
    let DataTruth::Analytic(truth) = &built.data_truth else {
        unreachable!("bulk-churn truth is analytic")
    };
    let live = built.net.total_items();
    if truth.items() != live {
        gate.push(format!(
            "episode {ep}: journaled truth counts {} items, network holds {live}",
            truth.items()
        ));
    }
    tr.open("stats.streaming.merge");
    let built_parts = base.net.ids().map(|id| base.net.node(id).expect("alive").store.values());
    let journaled_ks = truth.ks_of_parts(built_parts);
    tr.close();
    tr.add("stats.streaming.merge_items", live);
    let (lo, hi) = base.scenario.domain;
    let fresh = StreamingTruth::new(base.scenario.distribution.build(lo, hi), live);
    let live_parts = built.net.ids().map(|id| built.net.node(id).expect("alive").store.values());
    let live_ks = fresh.ks_of_parts(live_parts);
    if journaled_ks.to_bits() != live_ks.to_bits() {
        gate.push(format!(
            "episode {ep}: journaled truth KS {journaled_ks} != live-data KS {live_ks}"
        ));
    }
}
