//! The repository benchmark: three workloads that drive the simulator
//! through its public API, each reporting end-to-end metrics (untraced)
//! or per-layer metrics (traced). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <serve_open|churn_ivf|paper_suite> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-out <file>]
//! perfbench --calibrate
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A wrong simulated
//! result prints `"correct": false` and exits with code 1.

mod calib;
mod churn_ivf;
mod common;
mod paper_suite;
mod probes;
mod serve_open;

use std::time::{Duration, Instant};

use common::{median, metric, peak_rss_mb, Fingerprint, HostStat, Metric, Tracer};

/// End-to-end metrics, in output order (the `--trace 0` JSON).
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mb", "MB"),
    ("served_frac", "frac"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_goodput_qps", "1/s"),
    ("slo_attain", "frac"),
    ("recall_at_10", "frac"),
    ("sim_device_ms", "ms"),
];

/// Per-layer metrics, in output order (the `--trace 1` JSON). The result
/// JSON must carry every one of them, so a metric the workload does not
/// measure (its layer is idle) reads 0 there; the printed table marks it
/// `idle`.
const PER_LAYER: [(&str, &str); 62] = [
    ("serve.build_s", "s"),
    ("serve.submit_us", "us"),
    ("serve.drain_s", "s"),
    ("serve.self_s", "s"),
    ("serve.rejected", "count"),
    ("serve.mean_batch", "queries"),
    ("queue.occupancy", "frac"),
    ("queue.wait_ms", "ms"),
    ("queue.dispatch_ms", "ms"),
    ("queue.dma_ms", "ms"),
    ("queue.device_ms", "ms"),
    ("queue.dispatch_us", "us"),
    ("batch.replay_s", "s"),
    ("batch.walk_us", "us"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.bypassed", "count"),
    ("memo.hit_ratio", "frac"),
    ("hbm.replay_s", "s"),
    ("hbm.sim_gbps", "GB/s"),
    ("hbm.row_hit_rate", "frac"),
    ("ivf.build_s", "s"),
    ("ivf.builds", "count"),
    ("ivf.candidate_frac", "frac"),
    ("ivf.clusters_scanned", "count"),
    ("mutable.write_us", "us"),
    ("mutable.snapshot_us", "us"),
    ("mutable.delta_segments", "count"),
    ("mutable.compactions", "count"),
    ("mutable.compaction_ms", "ms"),
    ("micro.uops", "count"),
    ("micro.ns_per_uop", "ns"),
    ("micro.compute_cycles", "cycles"),
    ("micro.dma_cycles", "cycles"),
    ("micro.pio_cycles", "cycles"),
    ("gvml.add_u16_ns", "ns"),
    ("gvml.mul_u16_ns", "ns"),
    ("gvml.popcnt_16_ns", "ns"),
    ("gvml.eq_16_ns", "ns"),
    ("gvml.count_m_ns", "ns"),
    ("dma.copy_gbps", "GB/s"),
    ("phoenix.histogram.host_s", "s"),
    ("phoenix.histogram.sim_ms", "ms"),
    ("phoenix.linreg.host_s", "s"),
    ("phoenix.linreg.sim_ms", "ms"),
    ("phoenix.matmul.host_s", "s"),
    ("phoenix.matmul.sim_ms", "ms"),
    ("phoenix.kmeans.host_s", "s"),
    ("phoenix.kmeans.sim_ms", "ms"),
    ("phoenix.revindex.host_s", "s"),
    ("phoenix.revindex.sim_ms", "ms"),
    ("phoenix.strmatch.host_s", "s"),
    ("phoenix.strmatch.sim_ms", "ms"),
    ("phoenix.wordcount.host_s", "s"),
    ("phoenix.wordcount.sim_ms", "ms"),
    ("self.bench_s", "s"),
    ("self.serve_s", "s"),
    ("self.mutable_s", "s"),
    ("self.phoenix_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.host_s", "s"),
    ("trace.spans", "count"),
];

/// Fewest timed passes of each kind a run measures, whatever
/// `--seconds` says, so every host timing summarises several passes.
const MIN_PASSES: usize = 3;

/// One workload: set-up builds a pass's inputs, devices and servers;
/// `run` is the timed phase; the rest derive metrics from its output.
pub trait Workload {
    type Setup;
    type Output;
    /// How `host_s` summarises the timed passes.
    const HOST_STAT: HostStat;

    fn setup(&self, tr: &mut Tracer) -> Result<Self::Setup, String>;
    fn run(&self, setup: Self::Setup, tr: &mut Tracer) -> Result<Self::Output, String>;
    /// Every simulated output of the pass.
    fn fingerprint(&self, out: &Self::Output) -> Fingerprint;
    /// Operations attempted, and admitted operations that failed.
    fn counts(&self, out: &Self::Output) -> (u64, u64);
    /// The correctness gate against the CPU references. Oracle-derived
    /// metrics (recall) come back on success. Not timed.
    fn check(&self, out: &Self::Output) -> Result<Vec<Metric>, String>;
    /// Simulated end-to-end metrics of the pass.
    fn end_to_end(&self, out: &Self::Output) -> Vec<Metric>;
    /// Per-layer metrics: counters from the pass, span totals from the
    /// traced passes, and the layer probes (which record their own
    /// spans).
    fn layers(&self, out: &Self::Output, tr: &mut Tracer, traced_passes: u64) -> Vec<Metric>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<std::path::PathBuf>,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: None,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans-out" => args.spans_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.calibrate {
        calib::calibrate();
        return;
    }
    let result = match args.workload.as_str() {
        "serve_open" => measure(&serve_open::ServeOpen::new(args.seed), &args),
        "churn_ivf" => measure(&churn_ivf::ChurnIvf::new(args.seed), &args),
        "paper_suite" => measure(&paper_suite::PaperSuite::new(args.seed), &args),
        other => Err(format!(
            "unknown workload {other:?} (serve_open, churn_ivf, paper_suite)"
        )),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs passes for `--seconds` (at least [`MIN_PASSES`] timed ones after
/// an untimed warm-up pass), checks the first pass against the oracle,
/// and prints the metrics. With tracing on, untraced and traced passes
/// alternate so their host times can be compared; the probes run after
/// the last pass. `setup_s` is the median set-up time; host times are
/// summarised by the workload's [`HostStat`].
/// Returns whether every output was correct.
fn measure<W: Workload>(w: &W, args: &Args) -> Result<bool, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut traced = Tracer::new(true);
    let mut setup_s = Vec::new();
    let mut host_s = Vec::new();
    let mut traced_host_s = Vec::new();
    let mut first: Option<(W::Output, u64)> = None;
    let mut mismatched_passes = 0u64;
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        let trace_this = args.trace && pass % 2 == 1;
        let mut untraced = Tracer::new(false);
        let tr = if trace_this {
            &mut traced
        } else {
            &mut untraced
        };
        let root = tr.enter("pass", pass);
        let t0 = Instant::now();
        let setup = w.setup(tr)?;
        let t1 = Instant::now();
        let out = w.run(setup, tr)?;
        let t2 = Instant::now();
        tr.exit(root);
        // Pass 0 warms caches and the allocator; it is checked, not timed.
        if pass > 0 {
            setup_s.push((t1 - t0).as_secs_f64());
            if trace_this {
                traced_host_s.push((t2 - t1).as_secs_f64());
            } else {
                host_s.push((t2 - t1).as_secs_f64());
            }
        }
        let fp = w.fingerprint(&out).value();
        match &first {
            None => first = Some((out, fp)),
            Some((_, f)) if *f != fp => mismatched_passes += 1,
            Some(_) => {}
        }
        pass += 1;
        let enough =
            host_s.len() >= MIN_PASSES && (!args.trace || traced_host_s.len() >= MIN_PASSES);
        if enough && start.elapsed() >= budget {
            break;
        }
    }
    let (out, fp) = first.expect("at least one pass ran");
    let passes = pass;

    let mut layer_metrics = Vec::new();
    if args.trace {
        let n_traced = traced_host_s.len() as u64;
        // Self times cover the traced passes; the probes that `layers`
        // runs next report their own metrics.
        let self_times = traced.self_time_by_layer();
        layer_metrics = w.layers(&out, &mut traced, n_traced);
        let per_pass = |d: Duration| d.as_secs_f64() / n_traced as f64;
        // A layer without spans in this workload is left out: idle.
        for (layer, name) in [
            ("pass", "self.bench_s"),
            ("serve", "self.serve_s"),
            ("mutable", "self.mutable_s"),
            ("phoenix", "self.phoenix_s"),
        ] {
            if let Some((_, d)) = self_times.iter().find(|(l, _)| l == layer) {
                layer_metrics.push(metric(name, per_pass(*d), "s", n_traced));
            }
        }
        let traced_host = W::HOST_STAT.of(&traced_host_s);
        let untraced_host = W::HOST_STAT.of(&host_s);
        layer_metrics.push(metric(
            "trace.overhead_s",
            traced_host - untraced_host,
            "s",
            n_traced,
        ));
        layer_metrics.push(metric("trace.host_s", traced_host, "s", n_traced));
        layer_metrics.push(metric(
            "trace.spans",
            traced.spans().len() as f64,
            "count",
            1,
        ));
        println!("self time per layer (traced run, per traced pass):");
        for (layer, d) in &self_times {
            println!("  {layer:<10} {:>12.6} s", per_pass(*d));
        }
        if let Some(path) = &args.spans_out {
            traced
                .write(path)
                .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
            println!("spans written to {}", path.display());
        }
    }

    // The oracle runs after every timed pass, so it is never timed.
    let (attempted, failed) = w.counts(&out);
    let (mut correct, oracle_metrics) = match w.check(&out) {
        Ok(m) => (true, m),
        Err(e) => {
            println!("CORRECTNESS FAILURE: {e}");
            (false, vec![metric("recall_at_10", 0.0, "frac", 0)])
        }
    };
    if mismatched_passes > 0 {
        println!("CORRECTNESS FAILURE: {mismatched_passes} pass(es) produced a different simulated output than the first");
        correct = false;
    }

    let mut e2e = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len() as u64),
        metric("host_s", W::HOST_STAT.of(&host_s), "s", host_s.len() as u64),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    e2e.extend(w.end_to_end(&out));
    e2e.extend(oracle_metrics);

    println!(
        "workload {} seed {} passes {passes} (1 warm-up, untraced {}, traced {}) attempted {attempted} failed {failed}",
        args.workload,
        args.seed,
        host_s.len(),
        traced_host_s.len()
    );
    println!("fingerprint {fp:016x}");
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("host_s per untraced pass: {}", list(&host_s));
    println!("setup_s per pass: {}", list(&setup_s));
    print_rows("end-to-end", &e2e, false);
    let chosen: Vec<Metric> = if args.trace {
        let rows = fill(&PER_LAYER, layer_metrics, true)?;
        print_rows("per-layer", &rows, true);
        rows
    } else {
        fill(&END_TO_END, e2e, false)?
    };
    if let Some(m) = chosen.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "metric {} is not a finite number: {}",
            m.name, m.value
        ));
    }
    println!("{}", json_line(correct, attempted, failed, &chosen));
    Ok(correct)
}

/// Orders `got` as `names`. A per-layer metric the workload does not
/// measure reads 0 with 0 samples; every end-to-end metric must be
/// measured. Metrics outside `names` are printed rows only.
fn fill(
    names: &[(&'static str, &'static str)],
    got: Vec<Metric>,
    idle_ok: bool,
) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => Ok(m.clone()),
            Some(m) => Err(format!("metric {name} has unit {} not {unit}", m.unit)),
            None if idle_ok => Ok(metric(name, 0.0, unit, 0)),
            None => Err(format!("the workload did not measure {name}")),
        })
        .collect()
}

/// Prints one row per metric. With `mark_idle`, a metric over no
/// samples shows as `idle` instead of its placeholder value.
fn print_rows(title: &str, rows: &[Metric], mark_idle: bool) {
    println!("{title}:");
    for m in rows {
        let value = if mark_idle && m.samples == 0 {
            "idle".to_string()
        } else {
            format!("{:.6}", m.value)
        };
        println!("  {:<26} {value:>18} {:<8} n={}", m.name, m.unit, m.samples);
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, rows: &[Metric]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
