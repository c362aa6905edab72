//! `drift`: continuous estimation under protocol churn and data drift on
//! 1024 peers (the F5b shape: its normal(0.3, 0.08) base on the default
//! scenario's ring, 20 items per peer).
//!
//! Each tick runs `ChurnProcess::run` (protocol join/leave/fail plus
//! periodic `stabilize_round`, `ChurnConfig::symmetric(0.02, 0.5)`),
//! replaces 6 % of the items through `sample_tuple`/`delete`/`insert` with
//! draws whose mode slides across the domain, refreshes a
//! `ContinuousEstimator` (window 64, 16 probes per tick) and scores its
//! estimate against the live data. Membership and the write path do most
//! of the work here and none in `probe` or `serve`. A unit is one tick; an
//! episode is F5b's 16 ticks from a fork of the built network.

use crate::scenario::scenario;
use crate::trace::{clock, ns_since, Tracer};
use crate::{Det, EpisodeOut, HopStat, Shape, Workload};
use dde_core::{ContinuousConfig, ContinuousEstimator};
use dde_ring::{ChurnConfig, ChurnProcess, RingId};
use dde_sim::build::BuiltScenario;
use dde_sim::Scenario;
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::Ecdf;
use rand::Rng;

const PEERS: usize = 1024;
const WINDOW: usize = 64;
const REFRESH: usize = 16;
/// Ticks per episode (F5b's run length).
const TICKS: u64 = 16;
/// Share of the items replaced per tick, in percent.
const DRIFT_PCT: usize = 6;
/// F5b's bar for a refreshing window under drift: mean KS to the live
/// data below 0.25.
const KS_LIMIT: f64 = 0.25;
/// Stabilization rounds allowed after an episode for the ring to converge
/// before `check_invariants` must hold.
const SETTLE_ROUNDS: usize = 64;
/// Cold builds timed for `setup_s` (one takes ≈ 3 ms).
const SETUP_REPS: usize = 41;

/// The `drift` workload.
pub struct Drift;

impl Workload for Drift {
    fn shape(&self) -> Shape {
        Shape {
            k: REFRESH,
            unit: "tick",
            prefix_episodes: 8,
            setup_reps: SETUP_REPS,
            hop_stat: HopStat::DiscreteP99,
            throughput_unit: "ticks",
            tail: 0.95,
        }
    }

    fn scenario(&self, seed: u64) -> Scenario {
        // F5b's base: an easy-to-estimate normal that then drifts.
        let base = DistributionKind::Normal { center_frac: 0.3, std_frac: 0.08 };
        scenario(PEERS, seed).with_distribution(base)
    }

    fn episode(&self, base: &mut BuiltScenario, seed: u64, ep: u64, tr: &mut Tracer) -> EpisodeOut {
        let mut out = EpisodeOut::default();
        let mut net = base.net.fork();
        let seq = SeedSequence::new(seed);
        let mut churn_rng = seq.stream(Component::Churn, ep);
        let mut drift_rng = seq.stream(Component::Workload, ep);
        let mut est_rng = seq.stream(Component::Estimator, ep);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.02, 0.5));
        let mut cont = ContinuousEstimator::new(ContinuousConfig {
            window: WINDOW,
            refresh_per_tick: REFRESH,
            ..ContinuousConfig::default()
        });
        let domain = net.placement().domain();
        let (lo, hi) = domain;
        let mut initiator = net.random_peer(&mut est_rng).expect("nonempty");
        while cont.probes_held() < WINDOW {
            if cont.prefill(&mut net, initiator, &mut est_rng).is_err() {
                initiator = net.random_peer(&mut est_rng).expect("nonempty");
            }
        }
        let per_tick = net.total_items() as usize * DRIFT_PCT / 100;
        for tick in 0..TICKS {
            tr.set_unit(ep * TICKS + tick);
            let before = net.stats().clone();
            let t0 = clock();
            tr.open("unit");

            tr.open("ring.membership");
            let churned = churn.run(&mut net, 1.0, &mut churn_rng);
            tr.close();
            tr.add("ring.membership.events", churned.joins + churned.leaves + churned.fails);
            tr.add("ring.membership.stabilize_rounds", churned.stabilize_rounds);
            if !net.is_alive(initiator) {
                initiator = net.random_peer(&mut est_rng).expect("nonempty");
            }

            // Drift: delete a uniform stored tuple (found by remote
            // sampling), insert a draw from a normal whose mode slides
            // 0.3 → 0.7 of the domain over the episode.
            let center = 0.3 + 0.4 * (tick + 1) as f64 / TICKS as f64;
            let dist =
                DistributionKind::Normal { center_frac: center, std_frac: 0.08 }.build(lo, hi);
            tr.open("ring.write");
            let (mut writes, mut write_failed) = (0u64, 0u64);
            for _ in 0..per_tick {
                let point = RingId(drift_rng.gen());
                writes += 1;
                match net.sample_tuple(initiator, point, &mut drift_rng) {
                    Ok((Some(victim), _)) => {
                        writes += 1;
                        if net.delete(initiator, victim).is_err() {
                            write_failed += 1;
                        }
                    }
                    Ok((None, _)) => {}
                    Err(_) => write_failed += 1,
                }
                let x = dist.sample(&mut drift_rng);
                writes += 1;
                match net.insert(initiator, x) {
                    Ok(hops) => out.det.hops.push(f64::from(hops)),
                    Err(_) => write_failed += 1,
                }
            }
            tr.close();
            tr.add("ring.write.calls", writes);
            tr.add("ring.write.failed", write_failed);
            out.det.attempted += writes;
            out.det.failed += write_failed;

            tr.open("core.continuous");
            let ticked = cont.tick(&mut net, initiator, &mut est_rng);
            tr.close();
            tr.add("core.continuous.held", cont.probes_held() as u64);
            out.det.attempted += 1;
            let fresh = if ticked.is_ok() { REFRESH as u64 } else { 0 };
            tr.open("core.skeleton");
            let current = cont.current_estimate(domain);
            tr.close();
            match current {
                Ok(e) => {
                    tr.open("stats.truth");
                    let live = Ecdf::new(net.global_values());
                    let ks = e.ks_to(&live);
                    tr.close();
                    out.det.ks_sum += ks;
                }
                Err(_) => {
                    out.det.failed += 1;
                    out.det.ks_sum += 1.0;
                }
            }
            tr.close();
            out.unit_ns.push(ns_since(t0));
            let d = net.stats().since(&before);
            out.det.units += 1;
            out.det.msgs += d.total_messages();
            out.det.probes_req += REFRESH as u64;
            out.det.probes_ok += fresh;
            if ticked.is_err() {
                out.det.failed += 1;
            }
        }

        // After the churn stops the ring must converge to a correct one.
        let mut settled = 0;
        while !net.check_invariants().is_empty() && settled < SETTLE_ROUNDS {
            net.stabilize_round();
            settled += 1;
        }
        let broken = net.check_invariants();
        if !broken.is_empty() {
            out.gate.push(format!(
                "episode {ep}: invariants still broken after {SETTLE_ROUNDS} stabilize rounds: {:?}",
                &broken[..broken.len().min(3)]
            ));
        }
        out.work = TICKS;
        out
    }

    fn gate(&self, det: &Det, gate: &mut Vec<String>) {
        let ks = det.ks_sum / det.units.max(1) as f64;
        if !(ks < KS_LIMIT) {
            gate.push(format!("drift ks_mean {ks:.4} not below F5b's {KS_LIMIT}"));
        }
    }
}
