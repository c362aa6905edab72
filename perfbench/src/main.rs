//! The ring-dde benchmark: one command, four workloads, end-to-end and
//! per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <probe|serve|drift|bulk-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload has the shape of an experiment family (see the
//! workload modules). The benchmark hands the program only generated
//! `Scenario`s and `WorkloadSpec`s, times calls into the crates' public
//! functions from this package, and checks every result.
//!
//! A run is a sequence of *episodes*, each a fixed list of timed *units*
//! (an estimate, a serving session, a tick, a churn round) that starts from
//! the same built base, so episode `e` is a pure function of `(seed, e)`.
//! The simulated metrics (`ks_mean`, `msgs_per_unit`, `hops_p99`,
//! `probe_ok_frac`, `ok_frac`) come from the first few episodes only — the
//! fixed *prefix* — and are therefore bit-identical across repeats of a
//! seed; host times come from every unit run inside `--seconds`.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the prefix
//! untraced, then again with spans around every public call the layer table
//! names (re-driving hidden children in the same RNG order), demands
//! bit-identical simulated metrics, keeps tracing until `--seconds` is up,
//! and prints the per-layer metrics plus the tracing overhead. Both modes
//! replay episode 0 to prove repeatability and run the same checks on a
//! held-out seed derived from `--seed`. The last stdout line is the JSON
//! result; the line before it is the row metadata.

mod bulk;
mod drift;
mod layers;
mod probe;
mod scenario;
mod serve;
mod trace;

use dde_sim::build::{build_fresh, BuiltScenario};
use dde_sim::Scenario;
use dde_stats::rng::splitmix64;
use std::fmt::Write as _;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
const WORKLOADS: &[&str] = &["probe", "serve", "drift", "bulk-churn"];

/// Mixed into `--seed` to derive the held-out seed.
const HOLDOUT_SALT: u64 = 0x484F_4C44_4F55_54;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (known: {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// How the `hops_p99` samples of a workload are summarized.
#[derive(Debug, Clone, Copy)]
pub enum HopStat {
    /// Samples are integer hop counts: p99 with a continuity correction
    /// (each count spread uniformly over `[h − ½, h + ½)`), so the figure
    /// moves smoothly instead of jumping between integers.
    DiscreteP99,
    /// Samples are continuous (per-unit mean hops): plain p99.
    P99,
    /// Samples are already per-unit p99s: their mean.
    MeanOfP99,
}

/// Simulated (deterministic) results of a set of units.
#[derive(Debug, Clone, Default)]
pub struct Det {
    /// Units folded in.
    pub units: u64,
    /// Sum of the units' KS distances to their ground truth.
    pub ks_sum: f64,
    /// Simulated messages.
    pub msgs: u64,
    /// `hops_p99` samples (see [`HopStat`]).
    pub hops: Vec<f64>,
    /// Phase-1 probes answered.
    pub probes_ok: u64,
    /// Phase-1 probes requested.
    pub probes_req: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Exact per-unit records that must replay identically.
    pub records: Vec<String>,
}

impl Det {
    fn absorb(&mut self, other: &Det) {
        self.units += other.units;
        self.ks_sum += other.ks_sum;
        self.msgs += other.msgs;
        self.hops.extend_from_slice(&other.hops);
        self.probes_ok += other.probes_ok;
        self.probes_req += other.probes_req;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.records.extend(other.records.iter().cloned());
    }

    /// The five simulated end-to-end metrics, in output order.
    fn summary(&self, hop_stat: HopStat) -> [(&'static str, f64, &'static str); 5] {
        let units = self.units.max(1) as f64;
        let hops = match hop_stat {
            HopStat::DiscreteP99 => discrete_quantile(&self.hops, 0.99),
            HopStat::P99 => quantile(&self.hops, 0.99),
            HopStat::MeanOfP99 => self.hops.iter().sum::<f64>() / self.hops.len().max(1) as f64,
        };
        [
            ("ks_mean", self.ks_sum / units, "ks"),
            ("msgs_per_unit", self.msgs as f64 / units, "msgs"),
            ("hops_p99", hops, "hops"),
            ("probe_ok_frac", ratio(self.probes_ok, self.probes_req), "frac"),
            ("ok_frac", ratio(self.attempted - self.failed, self.attempted), "frac"),
        ]
    }

    /// Bit-level identity of the simulated results (summary and records).
    fn same_as(&self, other: &Det, hop_stat: HopStat) -> bool {
        let a = self.summary(hop_stat);
        let b = other.summary(hop_stat);
        a.iter().zip(&b).all(|(x, y)| x.1.to_bits() == y.1.to_bits())
            && self.units == other.units
            && self.records == other.records
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Linear-interpolated quantile `q` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile `q` of integer-valued samples with a continuity correction.
fn discrete_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let target = q * n;
    let mut below = 0usize;
    let mut i = 0;
    while i < v.len() {
        let mut j = i;
        while j < v.len() && v[j] == v[i] {
            j += 1;
        }
        if j as f64 >= target {
            let within = (target - below as f64) / (j - i) as f64;
            return v[i] - 0.5 + within;
        }
        below = j;
        i = j;
    }
    v[v.len() - 1] + 0.5
}

/// What one episode produced.
#[derive(Default)]
pub struct EpisodeOut {
    /// Simulated results.
    pub det: Det,
    /// Host time of each unit, ns.
    pub unit_ns: Vec<u64>,
    /// Failed correctness checks.
    pub gate: Vec<String>,
    /// Work items done (the `throughput_per_s` numerator).
    pub work: u64,
}

/// Static facts about a workload, recorded in the row metadata.
pub struct Shape {
    /// Phase-1 probes per estimate.
    pub k: usize,
    /// What one timed unit is.
    pub unit: &'static str,
    /// Episodes in the simulated-metric prefix.
    pub prefix_episodes: u64,
    /// Cold builds timed for `setup_s`.
    pub setup_reps: usize,
    /// How `hops_p99` is summarized.
    pub hop_stat: HopStat,
    /// What `throughput_per_s` counts.
    pub throughput_unit: &'static str,
    /// Percentile reported as `unit_ms_tail`: the highest one that keeps
    /// ten samples beyond it at this workload's usual unit count, fixed so
    /// the metric means the same on every run.
    pub tail: f64,
}

/// One benchmark workload. Every workload runs on a built scenario.
pub trait Workload {
    /// Static facts.
    fn shape(&self) -> Shape;
    /// The scenario built for `seed`.
    fn scenario(&self, seed: u64) -> Scenario;
    /// Runs episode `ep`, leaving `base` fit for the next episode.
    fn episode(&self, base: &mut BuiltScenario, seed: u64, ep: u64, tr: &mut Tracer) -> EpisodeOut;
    /// Checks on the prefix's simulated results.
    fn gate(&self, det: &Det, gate: &mut Vec<String>);
    /// Extra traced-only measurements, run after the traced episodes.
    fn trace_extra(&self, _base: &mut BuiltScenario, _seed: u64, _tr: &mut Tracer) {}
}

/// Peak resident set (`VmHWM`) in MB, 0 when unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The source revision: the git commit when run from a clone, else a
/// digest of the sources the benchmark links.
fn source_rev() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        let commit = match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok().or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
            None => Some(head.to_string()),
        };
        if let Some(c) = commit {
            return c.trim().chars().take(12).collect();
        }
    }
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    collect_sources(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Today's UTC date, `YYYY-MM-DD`.
fn utc_date() -> String {
    // ddelint::allow(wallclock, "row metadata: the date a benchmark row was measured")
    let now = std::time::SystemTime::now();
    let secs = now.duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs());
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Highest percentile of the ladder with at least 10 samples beyond it
/// (the fallback when a slow host ran too few units for the fixed one).
fn tail_level(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&p| (n as f64) * (1.0 - p) >= 10.0)
        .unwrap_or(0.5)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// JSON number with every digit `{}` gives (finite values only).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value));
    }
    s.push('}');
    s
}

/// Spans a traced run keeps at most; the traced loop stops early once it
/// has this many, which bounds memory and the span file.
const SPAN_CAP: usize = 1_000_000;

/// Runs the prefix episodes; returns their pooled simulated results.
fn run_prefix<W: Workload>(
    w: &W,
    base: &mut BuiltScenario,
    seed: u64,
    tr: &mut Tracer,
) -> (Det, Vec<EpisodeOut>) {
    let outs: Vec<EpisodeOut> =
        (0..w.shape().prefix_episodes).map(|ep| w.episode(base, seed, ep, tr)).collect();
    let mut det = Det::default();
    for out in &outs {
        det.absorb(&out.det);
    }
    (det, outs)
}

fn seconds_since(t0: std::time::Instant) -> f64 {
    trace::ns_since(t0) as f64 * 1e-9
}

/// Everything the end-to-end metrics are computed from.
#[derive(Default)]
struct Timed {
    unit_ns: Vec<u64>,
    work: u64,
    attempted: u64,
    failed: u64,
    gate: Vec<String>,
}

impl Timed {
    fn add(&mut self, out: EpisodeOut) {
        self.unit_ns.extend_from_slice(&out.unit_ns);
        self.work += out.work;
        self.attempted += out.det.attempted;
        self.failed += out.det.failed;
        self.gate.extend(out.gate);
    }
}

/// The traced part of a `--trace 1` run: traced set-up and prefix checked
/// against the untraced ones, traced episodes until `seconds` (or
/// [`SPAN_CAP`]), the spans written out. Returns the per-layer metrics
/// and the tracing overhead.
fn traced<W: Workload>(
    w: &W,
    name: &str,
    args: &Args,
    base: &mut BuiltScenario,
    det: &Det,
    origin: std::time::Instant,
    gate: &mut Vec<String>,
) -> (Vec<(String, f64, &'static str)>, f64) {
    let shape = w.shape();
    let mut setup_tr = Tracer::new(true);
    setup_tr.open("setup");
    let traced_base = scenario::build_traced(&w.scenario(args.seed), &mut setup_tr);
    setup_tr.close();
    if scenario::net_digest(&traced_base.net) != scenario::net_digest(&base.net) {
        gate.push("traced set-up built a different network than build_fresh".into());
    }
    drop(traced_base);

    // Traced prefix, then the untraced prefix again: both run warm, so
    // their wall-time ratio is the tracing overhead.
    let mut tr = Tracer::new(true);
    let (det_t, traced_outs) = run_prefix(w, base, args.seed, &mut tr);
    tr.set_enabled(false);
    let (det_u, untraced_outs) = run_prefix(w, base, args.seed, &mut tr);
    tr.set_enabled(true);
    for (what, other) in [("traced", &det_t), ("repeated untraced", &det_u)] {
        if !det.same_as(other, shape.hop_stat) {
            gate.push(format!(
                "{what} prefix diverged from the first untraced prefix: {:?} vs {:?}",
                det.summary(shape.hop_stat),
                other.summary(shape.hop_stat)
            ));
        }
    }
    let wall = |outs: &[EpisodeOut]| -> u64 { outs.iter().flat_map(|o| o.unit_ns.iter()).sum() };
    let overhead = wall(&traced_outs) as f64 / wall(&untraced_outs).max(1) as f64 - 1.0;
    gate.extend(traced_outs.into_iter().flat_map(|o| o.gate));

    let mut ep = shape.prefix_episodes;
    while seconds_since(origin) < args.seconds && tr.spans().len() < SPAN_CAP {
        gate.extend(w.episode(base, args.seed, ep, &mut tr).gate);
        ep += 1;
    }
    w.trace_extra(base, args.seed, &mut tr);

    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{name}-seed{}.tsv", args.seed));
    match tr.write_tsv(&path) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
    }
    (layers::per_layer(&tr, &setup_tr, overhead), overhead)
}

fn run<W: Workload>(w: &W, name: &str, args: &Args) -> i32 {
    let shape = w.shape();

    // Set-up: cold builds, median time.
    let mut setup_s = Vec::new();
    let mut base = None;
    for _ in 0..if args.trace { 1 } else { shape.setup_reps } {
        drop(base.take()); // free the previous build before timing the next
        let t0 = trace::clock();
        base = Some(build_fresh(&w.scenario(args.seed)));
        setup_s.push(seconds_since(t0));
    }
    let mut base = base.expect("at least one build");

    // The measured phase: `--seconds` of episodes, the prefix first.
    let origin = trace::clock();
    let mut quiet = Tracer::new(false);
    let (det, prefix_outs) = run_prefix(w, &mut base, args.seed, &mut quiet);
    let episode0 = prefix_outs[0].det.clone();
    let mut timed = Timed::default();
    for out in prefix_outs {
        timed.add(out);
    }
    let mut gate = std::mem::take(&mut timed.gate);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut row_extra = String::new();
    let mut episodes = shape.prefix_episodes;
    if args.trace {
        let (layer_metrics, overhead) = traced(w, name, args, &mut base, &det, origin, &mut gate);
        metrics = layer_metrics;
        let _ = write!(row_extra, ", \"trace_overhead_frac\": {}", num(overhead));
    } else {
        while seconds_since(origin) < args.seconds {
            timed.add(w.episode(&mut base, args.seed, episodes, &mut quiet));
            episodes += 1;
        }
        gate.append(&mut timed.gate);
    }

    // Repeatability: episode 0 again must replay bit-identically.
    let replay = w.episode(&mut base, args.seed, 0, &mut quiet);
    if !replay.det.same_as(&episode0, shape.hop_stat) {
        gate.push("episode 0 did not replay bit-identically".into());
    }
    w.gate(&det, &mut gate);
    drop(base);

    // The same checks on a held-out seed.
    let holdout = splitmix64(args.seed ^ HOLDOUT_SALT);
    let mut hbase = build_fresh(&w.scenario(holdout));
    let (hdet, houts) = run_prefix(w, &mut hbase, holdout, &mut quiet);
    drop(hbase);
    let mut hgate: Vec<String> = houts.into_iter().flat_map(|o| o.gate).collect();
    w.gate(&hdet, &mut hgate);
    gate.extend(hgate.into_iter().map(|g| format!("held-out seed {holdout}: {g}")));

    let unit_ms: Vec<f64> = timed.unit_ns.iter().map(|&n| n as f64 * 1e-6).collect();
    let tail = if unit_ms.len() as f64 * (1.0 - shape.tail) >= 10.0 {
        shape.tail
    } else {
        tail_level(unit_ms.len())
    };
    if !args.trace {
        let busy_s: f64 = unit_ms.iter().sum::<f64>() * 1e-3;
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        metrics.push(("throughput_per_s".into(), timed.work as f64 / busy_s, "work/s"));
        metrics.push(("unit_ms_p50".into(), median(&unit_ms), "ms"));
        metrics.push(("unit_ms_tail".into(), quantile(&unit_ms, tail), "ms"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics.extend(det.summary(shape.hop_stat).map(|(n, v, u)| (n.to_string(), v, u)));
    }

    let scenario = w.scenario(args.seed);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"row\": {{\"workload\": \"{name}\", \"seed\": {}, \"holdout_seed\": {holdout}, \
         \"rev\": \"{}\", \"date\": \"{}\", \"nproc\": {nproc}, \"threads\": 1, \
         \"profile\": \"{}\", \"peers\": {}, \"items\": {}, \"k\": {}, \"unit\": \"{}\", \
         \"throughput_unit\": \"{}\", \"units_timed\": {}, \"episodes\": {episodes}, \
         \"prefix_units\": {}, \"tail_percentile\": {}, \"tail_samples_beyond\": {}, \
         \"setup_reps\": {}, \"holdout_ks_mean\": {}, \"trace\": {}{row_extra}}}}}",
        args.seed,
        source_rev(),
        utc_date(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        scenario.peers,
        scenario.items,
        shape.k,
        shape.unit,
        shape.throughput_unit,
        unit_ms.len(),
        det.units,
        num(tail * 100.0),
        (unit_ms.len() as f64 * (1.0 - tail)).floor(),
        setup_s.len(),
        num(hdet.summary(shape.hop_stat)[0].1),
        u8::from(args.trace),
    );
    for g in &gate {
        eprintln!("perfbench: CHECK FAILED: {g}");
    }
    for (n, v, u) in &metrics {
        eprintln!("perfbench: {name} {n} = {} {u}", num(*v));
    }
    let correct = gate.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        timed.attempted.max(1),
        timed.failed,
        metrics_json(&metrics)
    );
    i32::from(!correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "probe" => run(&probe::Probe, "probe", &args),
        "serve" => run(&serve::Serve, "serve", &args),
        "drift" => run(&drift::Drift, "drift", &args),
        "bulk-churn" => run(&bulk::BulkChurn, "bulk-churn", &args),
        _ => unreachable!("validated in parse_args"),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_quantile_is_continuous_across_a_step() {
        let v: Vec<f64> = (0..100).map(|i| if i < 98 { 5.0 } else { 6.0 }).collect();
        let q = discrete_quantile(&v, 0.99);
        assert!(q > 5.5 && q < 6.5, "{q}");
        assert_eq!(discrete_quantile(&[3.0; 10], 0.5), 3.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(20_000), 0.999);
        assert_eq!(tail_level(1_000), 0.99);
        assert_eq!(tail_level(120), 0.9);
        assert_eq!(tail_level(20), 0.5);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }
}
