//! End-to-end benchmark of the rolediet workspace.
//!
//! ```text
//! e2ebench --workload <realorg|paper-dense|all> [--seed N]
//!          [--seconds S] [--trace 0|1] [--out-dir DIR]
//! ```
//!
//! Builds the workload's inputs from `--seed` (default 7, the seed of
//! `results_realorg.txt`), runs its closed loop for `--seconds`, checks
//! every output, prints every metric with its unit and sample count, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` one cycle of the loop runs, every operation once untraced
//! and once replayed layer by layer, and the metrics are the per-layer
//! ones. The fingerprint,
//! metrics and (traced) spans are also written to
//! `DIR/<workload>-seed<N>-trace<T>.json`. See `README.md` for why each
//! workload and metric exists.

mod checks;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

use trace::{Span, Tracer};
use workload::{Kind, Record, Run, Sizes, Workload, OPS};

/// One reported metric.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (operations, set-ups, or 1).
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub fingerprint: Vec<String>,
    pub rec: Record,
    pub metrics: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 7,
        seconds: 45.0,
        trace: false,
        out_dir: PathBuf::from("e2ebench/out"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required (realorg, paper-dense or all)".into());
    }
    Ok(parsed)
}

fn main() {
    if let Err(e) = run_cli() {
        eprintln!("e2ebench: {e}");
        std::process::exit(2);
    }
}

fn run_cli() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    for &w in &args.workloads {
        let outcome = run(w, args.seed, args.seconds, args.trace, &Sizes::FULL)?;
        print!("{}", render(&outcome, args.seconds)?);
        write_out(outcome, &args)?;
    }
    Ok(())
}

/// Runs one workload: untraced (end-to-end metrics) or traced (per-layer).
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
) -> Result<Outcome, String> {
    if trace {
        run_traced(w, seed, sizes)
    } else {
        run_untraced(w, seed, seconds, sizes)
    }
}

fn run_untraced(w: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..sizes.setups {
        // The previous set-up is dropped first, so set-ups never overlap.
        drop(inputs.take());
        let start = Instant::now();
        let fresh = workload::setup(w, seed, sizes, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        inputs = Some(fresh);
    }
    let mut inputs = inputs.ok_or("at least one set-up is needed")?;
    let fingerprint = inputs.fingerprint(w);
    let mut run = Run::new(w, &mut inputs, None);
    trace::reset_peak_rss()?;
    run.run_loop(seconds, sizes)?;
    let peak_rss_mb = workload::peak_rss_mb()?;
    let rec = run.finish();
    let metrics = end_to_end(&rec, &setup_s, peak_rss_mb)?;
    Ok(Outcome {
        workload: w,
        seed,
        trace: false,
        fingerprint,
        rec,
        metrics,
        tracer: None,
    })
}

fn run_traced(w: Workload, seed: u64, sizes: &Sizes) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    t.enter("setup");
    let mut inputs = workload::setup(w, seed, sizes, Some(&mut t))?;
    t.exit()?;
    let fingerprint = inputs.fingerprint(w);
    let mut run = Run::new(w, &mut inputs, Some(&mut t));
    run.run_loop(0.0, sizes)?;
    let rec = run.finish();
    let metrics = per_layer(&t, &rec);
    Ok(Outcome {
        workload: w,
        seed,
        trace: true,
        fingerprint,
        rec,
        metrics,
        tracer: Some(t),
    })
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(name: &str, xs: &[f64]) -> Result<f64, String> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => Err(format!("no samples for {name}")),
        n if n % 2 == 1 => Ok(v[n / 2]),
        n => Ok((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The mean over graphs of each graph's mean sample, so every graph weighs
/// the same however many operations a run got through on it.
fn graph_mean(name: &str, samples: &[(usize, f64)]) -> Result<f64, String> {
    let mut by_graph: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for &(g, x) in samples {
        let (sum, n) = by_graph.entry(g).or_default();
        *sum += x;
        *n += 1;
    }
    if by_graph.is_empty() {
        return Err(format!("no samples for {name}"));
    }
    let means: f64 = by_graph.values().map(|&(sum, n)| sum / n as f64).sum();
    Ok(means / by_graph.len() as f64)
}

/// Nearest-rank 90th percentile of `xs`.
fn p90(name: &str, xs: &[f64]) -> Result<f64, String> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 9).div_ceil(10);
    v.get(rank.max(1) - 1)
        .copied()
        .ok_or_else(|| format!("no samples for {name}"))
}

/// Set-up time is the median of the run's set-ups. Operation times are
/// means over the run (per graph, then over graphs): on a shared host,
/// machine speed can flip between a fast and a slow state for seconds at
/// a time, and a median jumps from one state to the other with the share
/// of time spent in each, where a mean moves in proportion to it.
fn end_to_end(rec: &Record, setup_s: &[f64], peak_rss_mb: f64) -> Result<Vec<Metric>, String> {
    let per_graph = |name: &str, xs: &[(usize, f64)], scale: f64, unit| -> Result<Metric, String> {
        Ok(metric(name, graph_mean(name, xs)? * scale, unit, xs.len()))
    };
    let [custom, exact, approx, mine, refresh] = &rec.times;
    let refresh_s: Vec<f64> = refresh.iter().map(|&(_, secs)| secs).collect();
    Ok(vec![
        metric("setup_s", median("setup_s", setup_s)?, "s", setup_s.len()),
        per_graph("detect_custom_s", custom, 1.0, "s")?,
        per_graph("detect_exact_s", exact, 1.0, "s")?,
        per_graph("detect_approx_s", approx, 1.0, "s")?,
        per_graph("mine_s", mine, 1.0, "s")?,
        per_graph("refresh_ms", refresh, 1e3, "ms")?,
        metric(
            "refresh_p90_ms",
            p90("refresh_p90_ms", &refresh_s)? * 1e3,
            "ms",
            refresh_s.len(),
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB", 1),
        per_graph("approx_recall", &rec.recall, 1.0, "share")?,
        per_graph("mined_roles", &rec.mined_roles, 1.0, "count")?,
        metric("ok_frac", rec.ok_frac(), "share", rec.attempted()),
    ])
}

/// Layers timed by busy time, in pipeline order.
const BUSY: [&str; 21] = [
    "synth.gen",
    "synth.churn",
    "core.incremental.new",
    "model.graph.project",
    "core.detector",
    "matrix.signature",
    "core.cooccur.same",
    "matrix.sparse.transpose",
    "core.cooccur.similar",
    "matrix.packed",
    "cluster.neighbors",
    "cluster.dbscan",
    "cluster.hnsw.build",
    "cluster.hnsw.probe",
    "core.incremental.report",
    "core.incremental.apply",
    "core.incremental.delta",
    "model.graph.upam",
    "mining.candidates",
    "mining.cover",
    "mining.verify",
];

/// Work counters.
const COUNTS: [&str; 11] = [
    "model.graph.nnz",
    "matrix.signature.rows",
    "matrix.signature.distinct",
    "core.cooccur.groups",
    "core.cooccur.pairs",
    "cluster.neighbors.edges",
    "cluster.dbscan.pairs",
    "core.incremental.apply.events",
    "core.incremental.delta.changes",
    "mining.candidates.pool",
    "mining.candidates.initial",
];

/// Layers whose resident-set peak is sampled.
const PEAKS: [&str; 5] = [
    "matrix.signature",
    "cluster.neighbors",
    "cluster.hnsw.build",
    "mining.candidates",
    "mining.cover",
];

fn per_layer(t: &Tracer, rec: &Record) -> Vec<Metric> {
    let mut out = Vec::new();
    let spans_of = |name: &str| t.spans().iter().filter(|s| s.name == name).count();
    for name in BUSY {
        out.push(metric(
            &format!("{name}.busy_s"),
            t.busy_s(name),
            "s",
            spans_of(name),
        ));
    }
    for name in COUNTS {
        out.push(metric(name, t.count(name) as f64, "count", 1));
    }
    for name in PEAKS {
        out.push(metric(
            &format!("{name}.peak_mb"),
            t.peak_mb(name),
            "MB",
            spans_of(name),
        ));
    }
    out.push(metric(
        "core.incremental.new.state_mb",
        t.retained_mb("core.incremental.new"),
        "MB",
        spans_of("core.incremental.new"),
    ));
    let ratio = |num: &str, den: &str| t.count(num) as f64 / t.count(den).max(1) as f64;
    out.push(metric(
        "cluster.dbscan.pair_yield",
        ratio("cluster.dbscan.pairs", "cluster.neighbors.edges"),
        "ratio",
        1,
    ));
    out.push(metric(
        "cluster.hnsw.probe.probe_yield",
        ratio("cluster.hnsw.probe.kept", "cluster.hnsw.probe.retrieved"),
        "ratio",
        1,
    ));
    out.push(metric(
        "mining.cover.yield",
        ratio("mining.cover.roles", "mining.cover.considered"),
        "ratio",
        1,
    ));
    // The replay's extra signature pass is a measurement, not a cost of
    // recording spans, so it is left out of the overhead.
    let ops: usize = t
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("op."))
        .count();
    let traced: f64 = t
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("op."))
        .map(|s| s.secs())
        .sum::<f64>()
        - t.busy_s("matrix.signature");
    let overhead = traced - rec.replayed_untraced_s;
    out.push(metric("bench.trace.overhead_s", overhead, "s", ops));
    out.push(metric(
        "bench.trace.overhead_frac",
        overhead / rec.replayed_untraced_s.max(f64::MIN_POSITIVE),
        "ratio",
        ops,
    ));
    out
}

/// A metric as the result line carries it.
#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

/// The result line the benchmark contract asks for.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, Reading>,
}

fn result_line(o: &Outcome) -> Result<String, String> {
    let line = ResultLine {
        correct: o.rec.failed() == 0,
        attempted: o.rec.attempted(),
        failed: o.rec.failed(),
        metrics: o
            .metrics
            .iter()
            .map(|m| {
                let reading = Reading {
                    value: m.value,
                    unit: m.unit,
                };
                (m.name.clone(), reading)
            })
            .collect(),
    };
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn render(o: &Outcome, seconds: f64) -> Result<String, String> {
    let mut s = String::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(
        s,
        "# e2ebench workload={} seed={} seconds={} trace={} threads=1 available_parallelism={cores}",
        o.workload.name(),
        o.seed,
        seconds,
        u8::from(o.trace)
    );
    for kind in [Kind::Custom, Kind::Exact, Kind::Approx] {
        let cfg = kind.config();
        let _ = writeln!(
            s,
            "# config {} include_disjoint={}",
            cfg.strategy.name(),
            cfg.similarity.include_disjoint
        );
    }
    for line in &o.fingerprint {
        let _ = writeln!(s, "# {line}");
    }
    for (name, (passed, failed)) in OPS.iter().zip(&o.rec.tallies) {
        let _ = writeln!(s, "# check {name}: {failed} of {} failed", passed + failed);
    }
    for m in &o.metrics {
        let _ = writeln!(
            s,
            "{:<36} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let _ = writeln!(s, "{}", result_line(o)?);
    Ok(s)
}

/// One operation kind's check tally.
#[derive(Serialize)]
struct Check {
    op: &'static str,
    attempted: usize,
    failed: usize,
}

/// What a run writes to its out file.
#[derive(Serialize)]
struct OutFile {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprint: Vec<String>,
    checks: Vec<Check>,
    metrics: Vec<Metric>,
    /// Traced runs only.
    counts: Option<BTreeMap<&'static str, u64>>,
    spans: Option<Vec<Span>>,
}

/// Writes the fingerprint, check tallies, metrics with sample counts and,
/// for a traced run, every span and counter.
fn write_out(o: Outcome, args: &Args) -> Result<(), String> {
    let file = OutFile {
        workload: o.workload.name(),
        seed: o.seed,
        seconds: args.seconds,
        trace: o.trace,
        checks: OPS
            .iter()
            .zip(&o.rec.tallies)
            .map(|(&op, &(passed, failed))| Check {
                op,
                attempted: passed + failed,
                failed,
            })
            .collect(),
        fingerprint: o.fingerprint,
        metrics: o.metrics,
        counts: o.tracer.as_ref().map(|t| t.counts().clone()),
        spans: o.tracer.map(|t| t.spans().to_vec()),
    };
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        file.workload,
        file.seed,
        u8::from(file.trace)
    ));
    std::fs::write(&path, json + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Declared {
        name: String,
        unit: String,
        #[serde(default)]
        bound: Option<f64>,
    }

    #[derive(Deserialize)]
    struct Benchmark {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    fn benchmark() -> Benchmark {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// `(name, unit)` of every metric in `metrics`, in order.
    fn names(metrics: &[Declared]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    }

    fn emitted(o: &Outcome) -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn every_workload_emits_every_declared_metric_at_tiny_scale() {
        let declared = benchmark();
        for w in Workload::ALL {
            let o = run(w, 11, 0.0, false, &Sizes::TINY).unwrap();
            assert_eq!(o.rec.failed(), 0, "{}: {:?}", w.name(), o.rec.tallies);
            assert_eq!(emitted(&o), names(&declared.end_to_end), "{}", w.name());
            for m in &o.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
                assert!(m.samples >= 1, "{} {}", w.name(), m.name);
            }
            assert!(!o.fingerprint.is_empty());
            let line: serde_json::Value = serde_json::from_str(&result_line(&o).unwrap()).unwrap();
            let keys: Vec<&str> = line
                .as_map_slice()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics").unwrap().as_map_slice().unwrap().len(),
                o.metrics.len()
            );

            let o = run(w, 11, 0.0, true, &Sizes::TINY).unwrap();
            assert_eq!(o.rec.failed(), 0, "{}: {:?}", w.name(), o.rec.tallies);
            assert_eq!(emitted(&o), names(&declared.per_layer), "{}", w.name());
            let (same, differ) = o.rec.tallies[OPS.len() - 1];
            assert!(same > 0, "{}: nothing was replayed", w.name());
            assert_eq!(
                differ,
                0,
                "{}: a replay disagreed with its untraced run",
                w.name()
            );
            for m in &o.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name(), m.name);
                if m.name.ends_with(".busy_s") {
                    assert!(m.value > 0.0, "{} {} never ran", w.name(), m.name);
                }
            }
        }
    }

    #[test]
    fn broken_covers_drop_ok_frac_by_more_than_its_bound() {
        let bound = benchmark()
            .end_to_end
            .iter()
            .find(|m| m.name == "ok_frac")
            .and_then(|m| m.bound)
            .unwrap();
        for w in Workload::ALL {
            let ok_frac = |break_covers| {
                let mut inputs = workload::setup(w, 11, &Sizes::TINY, None).unwrap();
                let mut run = Run::new(w, &mut inputs, None);
                run.break_covers = break_covers;
                run.run_loop(0.0, &Sizes::TINY).unwrap();
                let rec = run.finish();
                (rec.ok_frac(), rec.tallies[workload::MINE])
            };
            let (whole, (mined, _)) = ok_frac(false);
            let (broken, (passed, failed)) = ok_frac(true);
            assert!(mined > 0, "{}: no cover passed", w.name());
            assert_eq!((passed, failed), (0, mined), "{}", w.name());
            assert!(
                whole - broken > bound,
                "{}: ok_frac {whole} -> {broken} with every cover broken",
                w.name()
            );
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in Workload::ALL {
            let a = workload::setup(w, 5, &Sizes::TINY, None)
                .unwrap()
                .fingerprint(w);
            let b = workload::setup(w, 5, &Sizes::TINY, None)
                .unwrap()
                .fingerprint(w);
            let c = workload::setup(w, 6, &Sizes::TINY, None)
                .unwrap()
                .fingerprint(w);
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload paper-dense --seed 3 --seconds 1.5 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::PaperDense]);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 1.5, true));
        assert_eq!(parse("--workload all").unwrap().workloads.len(), 2);
        for bad in [
            "",
            "--workload nope",
            "--workload realorg --trace 2",
            "--workload realorg --seconds -1",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90("x", &xs).unwrap(), 90.0);
        assert_eq!(median("x", &xs).unwrap(), 50.5);
        assert_eq!(median("x", &[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert!(median("x", &[]).is_err());
    }

    #[test]
    fn graph_mean_weighs_every_graph_the_same() {
        // Graph 1 ran three times as often as graph 2.
        let samples = [(1, 1.0), (1, 3.0), (1, 2.0), (2, 6.0)];
        assert_eq!(graph_mean("x", &samples).unwrap(), 4.0);
        assert!(graph_mean("x", &[]).is_err());
    }
}
