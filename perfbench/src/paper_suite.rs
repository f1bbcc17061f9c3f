//! `paper_suite`: the seven Phoenix applications, all-opts variant,
//! functional at the `fig13` default scale, each on its own device. The
//! paper's characterization workload (Fig. 13); its host time goes to
//! the micro-op interpreter, GVML and DMA/L4. No queue, cluster, HBM or
//! IVF runs.

use std::time::{Duration, Instant};

use apu_sim::{ApuDevice, Marker, SimConfig, TaskReport, VcuStats, Vr};
use gvml::arith::ArithOps;
use gvml::cmp::CmpOps;
use phoenix::{histogram, kmeans, linreg, matmul, revindex, strmatch, wordcount, OptConfig};

use crate::calib::paper_suite as c;
use crate::common::{median, metric, ms, percentile, Fingerprint, HostStat, Metric, Rng, Tracer};
use crate::Workload;

pub struct PaperSuite {
    seed: u64,
}

impl PaperSuite {
    pub fn new(seed: u64) -> Self {
        PaperSuite { seed }
    }
}

/// One application's input.
pub enum Input {
    Histogram(Vec<u8>),
    LinReg(Vec<(u8, u8)>),
    MatMul(matmul::Mat, matmul::Mat),
    Kmeans(kmeans::KmeansInput),
    RevIndex(String),
    StrMatch(String),
    WordCount(String),
}

/// One application's output.
#[derive(Debug, PartialEq)]
pub enum Output {
    Histogram(histogram::Histogram),
    LinReg(linreg::LinRegStats),
    MatMul(Vec<u16>),
    Kmeans(kmeans::KmeansOutput),
    RevIndex(revindex::ReverseIndex),
    StrMatch(Vec<u64>),
    WordCount(wordcount::WordCounts),
}

pub struct AppRun {
    input: Input,
    output: Output,
    report: TaskReport,
}

impl AppRun {
    pub fn sim_ms(&self) -> f64 {
        ms(self.report.duration)
    }
}

/// Device sized for an input, as the `fig13` runner sizes it.
fn device_for(input_bytes: usize) -> ApuDevice {
    let l4 = (input_bytes * 4 + (64 << 20)).next_power_of_two();
    ApuDevice::try_new(SimConfig::default().with_l4_bytes(l4)).expect("suite config is valid")
}

fn span_name(i: usize) -> &'static str {
    [
        "phoenix.histogram",
        "phoenix.linreg",
        "phoenix.matmul",
        "phoenix.kmeans",
        "phoenix.revindex",
        "phoenix.strmatch",
        "phoenix.wordcount",
    ][i]
}

impl Workload for PaperSuite {
    type Setup = Vec<(ApuDevice, Input)>;
    const HOST_STAT: HostStat = HostStat::SlowQuarter;
    type Output = Vec<AppRun>;

    fn setup(&self, _tr: &mut Tracer) -> Result<Self::Setup, String> {
        let s = self.seed;
        // The kernels' timing does not depend on the data, so the seed
        // also draws each byte-sized input somewhat above its base size:
        // different seeds then see different tile counts, and none runs
        // below the `fig13` default scale.
        let mut rng = Rng::new(s, 0x5c);
        let mut size =
            |base: usize, growth: f64| (base as f64 * (1.0 + rng.unit() * growth)) as usize;
        let hist_bytes = size(c::HISTOGRAM_BYTES, c::HISTOGRAM_GROWTH);
        let lin_points = size(c::LINREG_POINTS, c::SIZE_GROWTH);
        let (rev_bytes, sm_bytes, wc_bytes) = (
            size(c::REVINDEX_BYTES, c::SIZE_GROWTH),
            size(c::STRMATCH_BYTES, c::SIZE_GROWTH),
            size(c::WORDCOUNT_BYTES, c::SIZE_GROWTH),
        );
        let hist = histogram::generate(hist_bytes, s);
        let lin = linreg::generate(lin_points, s);
        let (m, n, k) = c::MATMUL_MNK;
        let a = matmul::Mat::random(m, k, s);
        let b = matmul::Mat::random(k, n, s + 1);
        let km = kmeans::generate(c::KMEANS_POINTS, 16, 4, 3, s);
        let rev = revindex::generate(rev_bytes, s);
        let sm = strmatch::generate(sm_bytes, s);
        let wc = wordcount::generate(wc_bytes, s);
        Ok(vec![
            (device_for(hist.len() * 2), Input::Histogram(hist)),
            (device_for(lin.len() * 8), Input::LinReg(lin)),
            (device_for((m * k + k * n + m * n) * 2), Input::MatMul(a, b)),
            (device_for(km.n_points() * 10), Input::Kmeans(km)),
            (device_for(rev.len() * 3), Input::RevIndex(rev)),
            (device_for(sm.len() * 3), Input::StrMatch(sm)),
            (device_for(wc.len() * 3), Input::WordCount(wc)),
        ])
    }

    fn run(&self, setup: Self::Setup, tr: &mut Tracer) -> Result<Vec<AppRun>, String> {
        let all = OptConfig::all();
        let mut runs = Vec::with_capacity(setup.len());
        for (i, (mut dev, input)) in setup.into_iter().enumerate() {
            let open = tr.enter(span_name(i), i as u64);
            let res = match &input {
                Input::Histogram(d) => {
                    histogram::apu(&mut dev, d, all).map(|(o, r)| (Output::Histogram(o), r))
                }
                Input::LinReg(d) => {
                    linreg::apu(&mut dev, d, all).map(|(o, r)| (Output::LinReg(o), r))
                }
                Input::MatMul(a, b) => {
                    matmul::apu(&mut dev, a, b, all).map(|(o, r)| (Output::MatMul(o), r))
                }
                Input::Kmeans(d) => {
                    kmeans::apu(&mut dev, d, all).map(|(o, r)| (Output::Kmeans(o), r))
                }
                Input::RevIndex(t) => {
                    revindex::apu(&mut dev, t, all).map(|(o, r)| (Output::RevIndex(o), r))
                }
                Input::StrMatch(t) => strmatch::apu(&mut dev, t, &strmatch::default_keys(), all)
                    .map(|(o, r)| (Output::StrMatch(o), r)),
                Input::WordCount(t) => {
                    wordcount::apu(&mut dev, t, all).map(|(o, r)| (Output::WordCount(o), r))
                }
            };
            tr.exit(open);
            let (output, report) = res.map_err(|e| format!("{}: {e}", c::APPS[i]))?;
            runs.push(AppRun {
                input,
                output,
                report,
            });
        }
        Ok(runs)
    }

    fn fingerprint(&self, runs: &Vec<AppRun>) -> Fingerprint {
        let mut f = Fingerprint::default();
        for r in runs {
            f.add_bytes(format!("{:?}", r.output).as_bytes());
            f.add(r.report.cycles.get());
            f.add_duration(r.report.duration);
            f.add(r.report.stats.micro_ops);
        }
        f
    }

    fn counts(&self, runs: &Vec<AppRun>) -> (u64, u64) {
        (runs.len() as u64, 0)
    }

    fn check(&self, runs: &Vec<AppRun>) -> Result<Vec<Metric>, String> {
        for (i, r) in runs.iter().enumerate() {
            let reference = match &r.input {
                Input::Histogram(d) => Output::Histogram(histogram::cpu(d)),
                Input::LinReg(d) => Output::LinReg(linreg::cpu(d)),
                Input::MatMul(a, b) => Output::MatMul(matmul::cpu(a, b)),
                Input::Kmeans(d) => Output::Kmeans(kmeans::cpu(d)),
                Input::RevIndex(t) => Output::RevIndex(revindex::cpu(t)),
                Input::StrMatch(t) => Output::StrMatch(strmatch::cpu(t, &strmatch::default_keys())),
                Input::WordCount(t) => Output::WordCount(wordcount::cpu(t)),
            };
            if r.output != reference {
                return Err(format!(
                    "{}: the device output differs from the CPU reference",
                    c::APPS[i]
                ));
            }
        }
        // Every output equals its reference (any mismatch fails above).
        Ok(vec![metric("recall_at_10", 1.0, "frac", runs.len() as u64)])
    }

    fn end_to_end(&self, runs: &Vec<AppRun>) -> Vec<Metric> {
        let n = runs.len() as u64;
        let lat: Vec<Duration> = runs.iter().map(|r| r.report.duration).collect();
        let total: Duration = lat.iter().sum();
        let in_budget = runs
            .iter()
            .zip(c::SLO_MS)
            .filter(|(r, slo)| ms(r.report.duration) <= *slo)
            .count() as u64;
        vec![
            metric("served_frac", 1.0, "frac", n),
            metric("fail_frac", 0.0, "frac", n),
            metric("sim_p50_ms", ms(percentile(&lat, 0.50)), "ms", n),
            metric("sim_p99_ms", ms(percentile(&lat, 0.99)), "ms", n),
            metric(
                "sim_goodput_qps",
                in_budget as f64 / total.as_secs_f64(),
                "1/s",
                n,
            ),
            metric("slo_attain", in_budget as f64 / n as f64, "frac", n),
            metric("sim_device_ms", ms(total), "ms", n),
        ]
    }

    fn layers(&self, runs: &Vec<AppRun>, tr: &mut Tracer, traced_passes: u64) -> Vec<Metric> {
        let mut m = Vec::new();
        let mut stats = VcuStats::default();
        let mut host = 0.0;
        for (i, r) in runs.iter().enumerate() {
            stats.merge(&r.report.stats);
            let (d, _) = tr.total(span_name(i));
            let host_s = d.as_secs_f64() / traced_passes as f64;
            host += host_s;
            m.push(metric(
                format!("{}.host_s", span_name(i)),
                host_s,
                "s",
                traced_passes,
            ));
            m.push(metric(
                format!("{}.sim_ms", span_name(i)),
                ms(r.report.duration),
                "ms",
                1,
            ));
        }
        m.push(metric("micro.uops", stats.micro_ops as f64, "count", 1));
        m.push(metric(
            "micro.ns_per_uop",
            host * 1e9 / stats.micro_ops.max(1) as f64,
            "ns",
            stats.micro_ops,
        ));
        m.push(metric(
            "micro.compute_cycles",
            stats.compute_cycles as f64,
            "cycles",
            1,
        ));
        m.push(metric(
            "micro.dma_cycles",
            stats.dma_cycles as f64,
            "cycles",
            1,
        ));
        m.push(metric(
            "micro.pio_cycles",
            stats.pio_cycles as f64,
            "cycles",
            1,
        ));
        m.extend(gvml_probe(tr));
        m.push(dma_probe(tr));
        m
    }
}

/// Host nanoseconds per issued GVML op on one functional core, for the
/// ops the suite's kernels lean on.
fn gvml_probe(tr: &mut Tracer) -> Vec<Metric> {
    const OPS: usize = 2000;
    const RUNS: usize = 3;
    let (a, b, d) = (Vr::new(1), Vr::new(2), Vr::new(3));
    let mrk = Marker::new(1);
    type Op = fn(&mut apu_sim::ApuCore, Vr, Vr, Vr, Marker) -> apu_sim::Result<()>;
    let ops: [(&str, Op); 5] = [
        ("gvml.add_u16_ns", |c, d, a, b, _| c.add_u16(d, a, b)),
        ("gvml.mul_u16_ns", |c, d, a, b, _| c.mul_u16(d, a, b)),
        ("gvml.popcnt_16_ns", |c, d, a, _, _| c.popcnt_16(d, a)),
        ("gvml.eq_16_ns", |c, _, a, b, m| c.eq_16(m, a, b)),
        ("gvml.count_m_ns", |c, _, _, _, m| {
            c.count_m(m).map(|n| {
                std::hint::black_box(n);
            })
        }),
    ];
    let mut dev = ApuDevice::try_new(SimConfig::default()).expect("default config is valid");
    let mut out = Vec::new();
    for (i, (name, op)) in ops.into_iter().enumerate() {
        let mut ns = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let open = tr.enter("gvml.probe", i as u64);
            let t = Instant::now();
            dev.run_task(|ctx| {
                let core = ctx.core_mut();
                for _ in 0..OPS {
                    op(core, d, a, b, mrk)?;
                }
                Ok(())
            })
            .expect("probe ops are valid");
            ns.push(t.elapsed().as_secs_f64() * 1e9 / OPS as f64);
            tr.exit(open);
        }
        out.push(metric(name, median(&ns), "ns", (OPS * RUNS) as u64));
    }
    out
}

/// Host throughput of `copy_to_device` plus `copy_from_device`.
fn dma_probe(tr: &mut Tracer) -> Metric {
    const BYTES: usize = 16 << 20;
    const ROUNDS: usize = 4;
    let mut dev = device_for(BYTES);
    let h = dev.alloc(BYTES).expect("probe buffer fits");
    let src: Vec<u8> = (0..BYTES).map(|i| i as u8).collect();
    let mut dst = vec![0u8; BYTES];
    let open = tr.enter("dma.probe", 0);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        dev.copy_to_device(h, &src).expect("probe upload");
        dev.copy_from_device(h, &mut dst).expect("probe download");
    }
    let secs = t.elapsed().as_secs_f64();
    tr.exit(open);
    assert_eq!(src, dst, "the probe buffer round-trips");
    metric(
        "dma.copy_gbps",
        (2 * ROUNDS * BYTES) as f64 / secs / 1e9,
        "GB/s",
        (2 * ROUNDS) as u64,
    )
}
