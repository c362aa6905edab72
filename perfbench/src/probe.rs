//! `probe`: one-shot DF-DDE estimates on a static 2^16-peer ring under
//! injected loss — the paper's core operation (F1–F4, F11, F12).
//!
//! Routing, the probe RPC with retries, the skeleton, Phase 2 and the
//! ground truth do all the work; membership, batching and piggybacking do
//! none. 1.3 M items put the truth on the analytic `StreamingTruth` path.
//! A unit is one `DfDde::estimate` from a random initiator plus its KS to
//! the truth.

use crate::scenario::scenario;
use crate::trace::{clock, ns_since, Tracer};
use crate::{Det, EpisodeOut, HopStat, Shape, Workload};
use dde_core::{
    CdfSkeleton, DensityEstimate, DensityEstimator, DfDde, DfDdeConfig, EstimateError,
    EstimationReport, ProbeStrategy, SampleMode,
};
use dde_ring::{FaultPlan, LookupError, Network, ProbeReply, RingId};
use dde_sim::build::{BuiltScenario, DataTruth};
use dde_sim::Scenario;
use dde_stats::assert::KsBand;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::CdfFn as _;
use rand::rngs::StdRng;
use rand::Rng;

/// Peers: 2^16, the smallest ring whose items (20 per peer) still put the
/// truth on the analytic path (≥ 10^6 items); 2^17 showed a wider
/// run-to-run spread of host times.
const PEERS: usize = 1 << 16;
/// Phase-1 probes per estimate.
const K: usize = 128;
/// Phase-2 remote tuples per estimate.
const M: usize = 128;
/// Estimates per episode.
const UNITS: u64 = 32;
/// Request loss and reply loss of the fault plan.
const LOSS: f64 = 0.05;
const REPLY_LOSS: f64 = 0.025;
/// Messages per estimate may not exceed `COST_C · k · log2 P`. Phase 1 and
/// Phase 2 (m = k) each pay about `log2 P + 2` messages per probe (two per
/// routing hop at ≈ ½·log2 P hops, plus the request and reply), so a
/// healthy estimate sits near `2·k·log2 P`; 4 leaves room for retries.
const COST_C: f64 = 4.0;
/// Systematic KS allowance: 8-bucket summaries over the skewed default
/// workload, as in F12 and F11's fault band.
const SYSTEMATIC: f64 = 0.06;

/// One DF-DDE estimate. Untraced, `DfDde::estimate` itself; traced, its
/// Phase 1, skeleton and Phase 2 driven call by call (same calls, same RNG
/// order) with spans around each, so the result is bit-identical.
pub fn estimate_traced(
    est: &DfDde,
    net: &mut Network,
    initiator: RingId,
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<EstimationReport, EstimateError> {
    if !tr.enabled() {
        return est.estimate(net, initiator, rng);
    }
    let cfg = *est.config();
    let domain = net.placement().domain();
    let before = net.stats().clone();

    tr.open("core.phase1");
    let replies = drive_phase1(est, net, initiator, rng, tr);
    tr.close();
    let replies = replies?;
    if replies.len() < cfg.probes.min(2) {
        return Err(EstimateError::InsufficientProbes { got: replies.len(), need: cfg.probes });
    }
    let succeeded = replies.len();
    tr.open("core.skeleton");
    let skeleton = est.build_skeleton(&replies, domain);
    tr.close();
    let skeleton: CdfSkeleton = skeleton?;
    tr.add("core.skeleton.points", skeleton.cdf.points().len() as u64);

    let mut samples = Vec::new();
    if let SampleMode::RemoteTuples { m } = cfg.sample_mode {
        tr.open("core.phase2");
        let map = net.placement().domain_map().copied();
        for i in 0..m {
            let u = (i as f64 + rng.gen::<f64>()) / m as f64;
            let x_hat = skeleton.cdf.inv_cdf(u);
            let point = match &map {
                Some(m) => m.to_ring(x_hat),
                None => RingId(rng.gen()),
            };
            tr.open("ring.route");
            let got = net.sample_tuple(initiator, point, rng);
            tr.close();
            match got {
                Ok((tuple, hops)) => {
                    tr.add("ring.route.hops", u64::from(hops));
                    if let Some(t) = tuple {
                        samples.push(t);
                    }
                }
                Err(_) => tr.add("ring.route.failed", 1),
            }
        }
        tr.add("core.phase2.requested", m as u64);
        tr.add("core.phase2.tuples", samples.len() as u64);
        tr.close();
    }
    let contacted = skeleton.probes_used;
    Ok(EstimationReport {
        estimate: DensityEstimate::with_samples(skeleton.cdf, samples),
        cost: net.stats().since(&before),
        peers_contacted: contacted,
        estimated_total: Some(skeleton.n_hat),
        probes_requested: cfg.probes,
        probes_succeeded: succeeded,
    })
}

/// `DfDde::run_probes`, call by call: stratified points, within-stratum
/// retries, retry waits charged through the policy.
fn drive_phase1(
    est: &DfDde,
    net: &mut Network,
    initiator: RingId,
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<Vec<ProbeReply>, EstimateError> {
    let cfg = est.config();
    let k = cfg.probes;
    let retry = cfg.retry;
    let mut replies = Vec::with_capacity(k);
    let stratum = (u128::from(u64::MAX) + 1) / k.max(1) as u128;
    tr.add("core.phase1.probes", k as u64);
    for j in 0..k {
        for attempt in 0..retry.max_attempts.max(1) {
            let point = match cfg.strategy {
                ProbeStrategy::IidUniform => RingId(rng.gen()),
                ProbeStrategy::Stratified => {
                    let offset = rng.gen::<u64>() as u128 % stratum;
                    RingId(((j as u128 % k as u128) * stratum + offset) as u64)
                }
            };
            tr.add("core.phase1.attempts", 1);
            tr.open("ring.probe");
            let got = net.probe(initiator, point);
            tr.close();
            match got {
                Ok(reply) => {
                    tr.add("ring.probe.hops", u64::from(reply.hops));
                    tr.add("core.phase1.ok", 1);
                    replies.push(reply);
                    break;
                }
                Err(LookupError::InitiatorDead) => return Err(EstimateError::InitiatorDead),
                Err(_) => {
                    tr.add("ring.probe.failed", 1);
                    tr.add("core.phase1.failed", 1);
                    net.stats_mut().record_delay(retry.failed_attempt_cost(attempt));
                }
            }
        }
    }
    Ok(replies)
}

/// Folds one estimate outcome into `det`; returns the KS (NaN on error).
pub fn score_estimate(
    got: &Result<EstimationReport, EstimateError>,
    truth: &DataTruth,
    det: &mut Det,
    tr: &mut Tracer,
) -> f64 {
    det.units += 1;
    det.attempted += 1;
    match got {
        Ok(r) => {
            tr.open("stats.truth");
            let ks = r.estimate.ks_to(truth);
            tr.close();
            det.ks_sum += ks;
            det.msgs += r.messages();
            det.hops.push(r.cost.mean_hops());
            det.probes_ok += r.probes_succeeded as u64;
            det.probes_req += r.probes_requested as u64;
            ks
        }
        Err(_) => {
            det.failed += 1;
            f64::NAN
        }
    }
}

/// The `probe` workload.
pub struct Probe;

impl Probe {
    fn estimator() -> DfDde {
        DfDde::new(DfDdeConfig {
            sample_mode: SampleMode::RemoteTuples { m: M },
            ..DfDdeConfig::with_probes(K)
        })
    }
}

impl Workload for Probe {
    fn shape(&self) -> Shape {
        Shape {
            k: K,
            unit: "estimate",
            prefix_episodes: 8,
            setup_reps: 3,
            hop_stat: HopStat::P99,
            throughput_unit: "estimates",
            tail: 0.99,
        }
    }

    fn scenario(&self, seed: u64) -> Scenario {
        scenario(PEERS, seed)
    }

    fn episode(&self, base: &mut BuiltScenario, seed: u64, ep: u64, tr: &mut Tracer) -> EpisodeOut {
        let mut out = EpisodeOut::default();
        let seq = SeedSequence::new(seed);
        // A fresh fault clock per episode keeps episodes independent.
        let fault_seed = seq.stream(Component::Probes, ep).gen::<u64>();
        base.net
            .set_fault_plan(FaultPlan::new(fault_seed).with_loss(LOSS).with_reply_loss(REPLY_LOSS));
        let mut rng = seq.stream(Component::Estimator, ep);
        let est = Self::estimator();
        let bound = COST_C * K as f64 * (PEERS as f64).log2();
        for i in 0..UNITS {
            let initiator = base.net.random_peer(&mut rng).expect("network has peers");
            tr.set_unit(ep * UNITS + i);
            let t0 = clock();
            tr.open("unit");
            let got = estimate_traced(&est, &mut base.net, initiator, &mut rng, tr);
            score_estimate(&got, &base.data_truth, &mut out.det, tr);
            tr.close();
            out.unit_ns.push(ns_since(t0));
            out.work += 1;
            if let Ok(r) = &got {
                if r.messages() as f64 > bound {
                    out.gate.push(format!(
                        "estimate {ep}.{i} sent {} messages > {COST_C}·k·log2 P = {bound:.0}",
                        r.messages()
                    ));
                }
            }
        }
        base.net.clear_fault_plan();
        out
    }

    fn gate(&self, det: &Det, gate: &mut Vec<String>) {
        let ks = det.ks_sum / det.units.max(1) as f64;
        // The band of a k-probe estimate at α = 1e-3; the mean of many
        // estimates must sit inside it.
        if let Err(v) = KsBand::new(K, 1e-3).with_systematic(SYSTEMATIC).check(ks) {
            gate.push(format!("probe ks_mean: {v}"));
        }
    }
}
