//! Per-layer metrics folded from a traced run's spans and counters.
//!
//! Every workload prints every name below; a layer a workload never calls
//! reads 0. Layer names follow the module that owns the public entry point.

use crate::ratio;
use crate::trace::{LayerTotals, Tracer};

/// The layers, in output order. `ring.build` is timed during set-up; the
/// others inside the timed units.
const LAYERS: &[&str] = &[
    "ring.build",
    "ring.probe",
    "ring.route",
    "core.phase1",
    "core.skeleton",
    "core.phase2",
    "stats.truth",
    "ring.batch",
    "core.piggyback",
    "ring.write",
    "ring.membership",
    "core.continuous",
    "ring.churn",
    "ring.turnover",
    "stats.streaming",
];

/// `<layer>.calls` counter when a workload counts calls itself (one span
/// around a loop of calls), else the number of spans.
fn calls(tr: &Tracer, layer: &str, t: LayerTotals) -> u64 {
    match tr.counter(&format!("{layer}.calls")) {
        0 => t.calls,
        n => n,
    }
}

/// Per-layer metrics: calls, self time, share of wall time and failures
/// for each layer, the layer's own ratio, and the tracing overhead.
pub fn per_layer(tr: &Tracer, setup: &Tracer, overhead: f64) -> Vec<(String, f64, &'static str)> {
    let totals = tr.layer_totals();
    let setup_totals = setup.layer_totals();
    let get = |m: &std::collections::BTreeMap<&'static str, LayerTotals>, k: &str| {
        m.get(k).copied().unwrap_or_default()
    };
    let unit = get(&totals, "unit");
    let setup_wall = get(&setup_totals, "setup").total_ns;
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let c = |k: &str| tr.counter(k);

    for &layer in LAYERS {
        let (t, n_calls, per, wall, failed) = if layer == "ring.build" {
            let wire = get(&setup_totals, "ring.build");
            let load = get(&setup_totals, "ring.build.load");
            // One build is one `Network::build` plus its `bulk_load`.
            let t = LayerTotals {
                calls: wire.calls,
                self_ns: wire.self_ns + load.self_ns,
                total_ns: wire.total_ns + load.total_ns,
            };
            (t, t.calls, 1, setup_wall, 0)
        } else {
            let t = get(&totals, layer);
            let failed = tr.counter(&format!("{layer}.failed"));
            (t, calls(tr, layer, t), unit.calls, unit.total_ns, failed)
        };
        out.push((format!("{layer}.calls_per_unit"), ratio(n_calls, per), "count"));
        out.push((format!("{layer}.ns_per_call"), ratio(t.self_ns, n_calls), "ns"));
        out.push((format!("{layer}.share"), ratio(t.self_ns, wall), "frac"));
        out.push((format!("{layer}.failed_per_unit"), ratio(failed, per), "count"));
    }

    let probe_calls = calls(tr, "ring.probe", get(&totals, "ring.probe"));
    let route_calls = calls(tr, "ring.route", get(&totals, "ring.route"));
    let write_calls = calls(tr, "ring.write", get(&totals, "ring.write"));
    let skeleton_calls = calls(tr, "core.skeleton", get(&totals, "core.skeleton"));
    let continuous_calls = calls(tr, "core.continuous", get(&totals, "core.continuous"));
    let turnover_first = ratio(c("ring.turnover.first_ns"), c("ring.turnover.first_items"));
    let turnover_last = ratio(c("ring.turnover.last_ns"), c("ring.turnover.last_items"));
    let ratios: Vec<(&str, f64, &'static str)> = vec![
        (
            "ring.build.ns_per_peer",
            ratio(get(&setup_totals, "ring.build").self_ns, setup.counter("ring.build.peers")),
            "ns",
        ),
        (
            "ring.build.ns_per_item",
            ratio(get(&setup_totals, "ring.build.load").self_ns, setup.counter("ring.build.items")),
            "ns",
        ),
        ("ring.probe.hops_per_call", ratio(c("ring.probe.hops"), probe_calls), "hops"),
        ("ring.probe.failed_frac", ratio(c("ring.probe.failed"), probe_calls), "frac"),
        ("ring.route.hops_per_call", ratio(c("ring.route.hops"), route_calls), "hops"),
        ("ring.route.failed_frac", ratio(c("ring.route.failed"), route_calls), "frac"),
        (
            "core.phase1.attempts_per_probe",
            ratio(c("core.phase1.attempts"), c("core.phase1.probes")),
            "ratio",
        ),
        ("core.phase1.ok_frac", ratio(c("core.phase1.ok"), c("core.phase1.probes")), "frac"),
        ("core.skeleton.support_points", ratio(c("core.skeleton.points"), skeleton_calls), "count"),
        (
            "core.phase2.tuples_frac",
            ratio(c("core.phase2.tuples"), c("core.phase2.requested")),
            "frac",
        ),
        ("ring.batch.paid_frac", ratio(c("ring.batch.paid"), c("ring.batch.walked")), "frac"),
        (
            "core.piggyback.covered_frac",
            ratio(c("core.piggyback.covered"), c("core.piggyback.planned")),
            "frac",
        ),
        ("ring.write.failed_frac", ratio(c("ring.write.failed"), write_calls), "frac"),
        (
            "ring.membership.stabilize_rounds_per_unit",
            ratio(c("ring.membership.stabilize_rounds"), unit.calls),
            "count",
        ),
        (
            "ring.membership.events_per_unit",
            ratio(c("ring.membership.events"), unit.calls),
            "count",
        ),
        (
            "core.continuous.probes_held",
            ratio(c("core.continuous.held"), continuous_calls),
            "count",
        ),
        (
            "ring.churn.finger_writes_per_event",
            ratio(c("ring.churn.finger_writes"), c("ring.churn.events")),
            "count",
        ),
        ("ring.turnover.ns_per_item_first", turnover_first, "ns"),
        ("ring.turnover.ns_per_item_last", turnover_last, "ns"),
        (
            "ring.turnover.last_over_first",
            if turnover_first > 0.0 { turnover_last / turnover_first } else { 0.0 },
            "ratio",
        ),
        (
            "stats.streaming.merge_ns_per_item",
            ratio(get(&totals, "stats.streaming.merge").self_ns, c("stats.streaming.merge_items")),
            "ns",
        ),
        ("trace.overhead_frac", overhead, "frac"),
        ("trace.spans_per_unit", ratio(tr.spans().len() as u64, unit.calls), "count"),
    ];
    out.extend(ratios.into_iter().map(|(n, v, u)| (n.to_string(), v, u)));
    out
}
