//! `serve`: open-loop serving sessions on 4096 peers (F14) — Poisson
//! arrivals in virtual time at 1600 ops/s, a 200/700/100 insert/lookup/
//! estimate-read mix, batched routing and probe piggybacking on, k = 48,
//! refresh every 2 virtual seconds.
//!
//! Writes sit beside reads; `BatchRouter` and `ProbePlan` do most of their
//! work here and none in `probe`. The simulator does not queue, so virtual
//! latency does not depend on the rate: the benchmark reports host
//! throughput (scheduled ops per host second) at this one offered rate. A
//! unit is one `run_workload` session.

use crate::scenario::scenario;
use crate::trace::{clock, ns_since, Tracer};
use crate::{Det, EpisodeOut, HopStat, Shape, Workload};
use dde_core::{DensityEstimate, DfDde, DfDdeConfig, ProbePlan};
use dde_ring::{BatchRouter, MessageKind, RingId};
use dde_sim::build::BuiltScenario;
use dde_sim::workload::{run_workload, schedule, OpKind, OpMix, WorkloadReport, WorkloadSpec};
use dde_sim::Scenario;
use dde_stats::assert::KsBand;
use dde_stats::gk::GkSketch;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::Ecdf;
use rand::Rng;

const PEERS: usize = 4096;
const K: usize = 48;
/// Virtual seconds per session.
const DURATION: f64 = 4.0;
/// Sessions per episode.
const SESSIONS: u64 = 4;
/// Cold builds timed for `setup_s` (one takes ≈ 15 ms).
const SETUP_REPS: usize = 21;
/// F14's systematic allowance: 8-bucket summaries over the skewed default
/// workload plus the live inserts accrued since the last refresh.
const SYSTEMATIC: f64 = 0.08;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        rate: 1600.0,
        duration: DURATION,
        mix: OpMix::new(200, 700),
        window: 0.05,
        probes: K,
        refresh_interval: 2.0,
        batch: true,
        piggyback: true,
    }
}

/// Maps 64 entropy bits onto `[0, 1)` with 53-bit resolution (as the
/// serving engine does).
fn unit_interval(entropy: u64) -> f64 {
    (entropy >> 11) as f64 / (1u64 << 53) as f64
}

/// `run_workload`, op by op, with spans around each public call: the same
/// calls in the same RNG order, so the report must equal the engine's.
fn replay_session(
    built: &BuiltScenario,
    spec: &WorkloadSpec,
    run_index: u64,
    tr: &mut Tracer,
) -> WorkloadReport {
    let mut net = built.net.fork();
    let ops = schedule(spec, built.scenario.seed, run_index);
    let seq = SeedSequence::new(built.scenario.seed);
    let mut est_rng = seq.stream(Component::Estimator, run_index);
    let ids: Vec<RingId> = net.ids().collect();
    let domain = net.placement().domain();
    let (lo, hi) = domain;
    let estimator = DfDde::new(DfDdeConfig::with_probes(spec.probes));
    let mut report = WorkloadReport {
        ops_scheduled: ops.len(),
        ops_completed: 0,
        ops_failed: 0,
        inserts: 0,
        lookups: 0,
        estimate_reads: 0,
        throughput: 0.0,
        hop_p50: 0.0,
        hop_p95: 0.0,
        hop_p99: 0.0,
        refreshes: 0,
        refresh_failures: 0,
        piggybacked: 0,
        dedicated_probes: 0,
        piggyback_msgs: 0,
        lookup_hop_msgs: 0,
        messages: 0,
        bytes: 0,
        mean_staleness: 0.0,
        est_ks: f64::NAN,
    };
    let before = net.stats().clone();
    let mut batch = BatchRouter::new();
    let mut latency = GkSketch::new(0.005);
    let mut estimate: Option<DensityEstimate> = None;
    let mut staleness_sum = 0.0_f64;

    let refresh = |net: &mut dde_ring::Network,
                   plan: ProbePlan,
                   initiator: RingId,
                   est_rng: &mut rand::rngs::StdRng,
                   estimate: &mut Option<DensityEstimate>,
                   report: &mut WorkloadReport,
                   tr: &mut Tracer| {
        report.piggybacked += plan.piggybacked();
        tr.add("core.piggyback.planned", plan.len() as u64);
        let covered = (plan.len() - plan.pending()) as u64;
        tr.add("core.phase1.probes", plan.pending() as u64);
        tr.open("core.phase1");
        let replies = plan.complete(&estimator, net, initiator, est_rng);
        tr.close();
        match replies {
            Ok(replies) => {
                tr.add("core.phase1.ok", replies.len() as u64 - covered);
                tr.open("core.skeleton");
                let skeleton = estimator.build_skeleton(&replies, domain);
                tr.close();
                match skeleton {
                    Ok(s) => {
                        tr.add("core.skeleton.points", s.cdf.points().len() as u64);
                        *estimate = Some(DensityEstimate::with_samples(s.cdf, Vec::new()));
                        report.refreshes += 1;
                    }
                    Err(_) => report.refresh_failures += 1,
                }
            }
            Err(_) => report.refresh_failures += 1,
        }
        ProbePlan::plan(&estimator, est_rng)
    };

    let plan = ProbePlan::plan(&estimator, &mut est_rng);
    let initiator = ids[est_rng.gen_range(0..ids.len())];
    let mut plan = refresh(&mut net, plan, initiator, &mut est_rng, &mut estimate, &mut report, tr);
    let mut last_refresh = 0.0_f64;
    let mut next_refresh = spec.refresh_interval;
    let mut cur_window = u64::MAX;
    let mut origin = ids[0];
    for op in &ops {
        while next_refresh <= op.at {
            let initiator = ids[est_rng.gen_range(0..ids.len())];
            plan = refresh(&mut net, plan, initiator, &mut est_rng, &mut estimate, &mut report, tr);
            last_refresh = next_refresh;
            next_refresh += spec.refresh_interval;
        }
        let w = (op.at / spec.window) as u64;
        if w != cur_window {
            cur_window = w;
            tr.add("ring.batch.paid", batch.edges_paid() as u64);
            batch.begin_window();
            origin = ids[(op.origin_entropy % ids.len() as u64) as usize];
        }
        match op.kind {
            OpKind::Insert => {
                report.inserts += 1;
                let x = lo + (hi - lo) * unit_interval(op.value_entropy);
                tr.open("ring.write");
                let got = net.insert(origin, x);
                tr.close();
                match got {
                    Ok(hops) => {
                        report.ops_completed += 1;
                        latency.insert(f64::from(hops));
                    }
                    Err(_) => {
                        tr.add("ring.write.failed", 1);
                        report.ops_failed += 1;
                    }
                }
            }
            OpKind::Lookup => {
                report.lookups += 1;
                let x = lo + (hi - lo) * unit_interval(op.value_entropy);
                let target = net.placement().place(x);
                tr.open("ring.batch");
                let res = if spec.batch {
                    net.lookup_batched(origin, target, &mut batch)
                } else {
                    net.lookup(origin, target)
                };
                tr.close();
                match res {
                    Ok(r) => {
                        report.ops_completed += 1;
                        tr.add("ring.batch.walked", u64::from(r.hops));
                        latency.insert(f64::from(r.hops));
                        if spec.piggyback {
                            tr.open("core.piggyback");
                            let covered = plan.offer_owner(&mut net, r.owner);
                            tr.close();
                            tr.add("core.piggyback.covered", covered as u64);
                        }
                    }
                    Err(_) => {
                        tr.add("ring.batch.failed", 1);
                        report.ops_failed += 1;
                    }
                }
            }
            OpKind::Estimate => {
                report.estimate_reads += 1;
                staleness_sum += op.at - last_refresh;
                if estimate.is_some() {
                    report.ops_completed += 1;
                } else {
                    report.ops_failed += 1;
                }
            }
        }
    }
    tr.add("ring.batch.paid", batch.edges_paid() as u64);
    report.piggybacked += plan.piggybacked();
    tr.add("core.piggyback.planned", plan.len() as u64);

    report.throughput = report.ops_completed as f64 / spec.duration;
    report.hop_p50 = latency.quantile(0.50).unwrap_or(0.0);
    report.hop_p95 = latency.quantile(0.95).unwrap_or(0.0);
    report.hop_p99 = latency.quantile(0.99).unwrap_or(0.0);
    if report.estimate_reads > 0 {
        report.mean_staleness = staleness_sum / report.estimate_reads as f64;
    }
    if let Some(e) = &estimate {
        tr.open("stats.truth");
        let live = Ecdf::new(net.global_values());
        report.est_ks = e.ks_to(&live);
        tr.close();
    }
    let d = net.stats().since(&before);
    report.dedicated_probes = d.count(MessageKind::Probe);
    report.piggyback_msgs = d.count(MessageKind::ProbePiggyback);
    report.lookup_hop_msgs = d.count(MessageKind::LookupHop);
    report.messages = d.total_messages();
    report.bytes = d.total_bytes();
    report
}

/// The `serve` workload.
pub struct Serve;

impl Workload for Serve {
    fn shape(&self) -> Shape {
        Shape {
            k: K,
            unit: "session",
            prefix_episodes: 8,
            setup_reps: SETUP_REPS,
            hop_stat: HopStat::MeanOfP99,
            throughput_unit: "scheduled ops",
            tail: 0.95,
        }
    }

    fn scenario(&self, seed: u64) -> Scenario {
        scenario(PEERS, seed)
    }

    fn episode(
        &self,
        base: &mut BuiltScenario,
        _seed: u64,
        ep: u64,
        tr: &mut Tracer,
    ) -> EpisodeOut {
        let mut out = EpisodeOut::default();
        let spec = spec();
        for s in 0..SESSIONS {
            let run_index = ep * SESSIONS + s;
            tr.set_unit(run_index);
            let t0 = clock();
            tr.open("unit");
            let r = if tr.enabled() {
                replay_session(base, &spec, run_index, tr)
            } else {
                run_workload(base, &spec, run_index)
            };
            tr.close();
            out.unit_ns.push(ns_since(t0));
            let det = &mut out.det;
            det.units += 1;
            det.ks_sum += r.est_ks;
            det.msgs += r.messages;
            det.hops.push(r.hop_p99);
            // A refresh is this workload's probe round.
            det.probes_ok += r.refreshes as u64;
            det.probes_req += (r.refreshes + r.refresh_failures) as u64;
            det.attempted += (r.ops_scheduled + r.refreshes + r.refresh_failures) as u64;
            det.failed += (r.ops_failed + r.refresh_failures) as u64;
            det.records.push(format!("{r:?}"));
            out.work += r.ops_scheduled as u64;
            if r.ops_completed + r.ops_failed != r.ops_scheduled
                || r.inserts + r.lookups + r.estimate_reads != r.ops_scheduled
            {
                out.gate.push(format!("session {run_index}: op counts do not add up: {r:?}"));
            }
        }
        out
    }

    fn gate(&self, det: &Det, gate: &mut Vec<String>) {
        let ks = det.ks_sum / det.units.max(1) as f64;
        if let Err(v) = KsBand::new(K, 1e-3).with_systematic(SYSTEMATIC).check(ks) {
            gate.push(format!("serve ks_mean: {v}"));
        }
    }
}
