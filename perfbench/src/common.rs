//! Shared pieces of the benchmark: the seeded input generator, the
//! in-memory span recorder, metric rows and the output format.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// only on `--seed` and not on any crate's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Exponential inter-arrival gap for a Poisson process at `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// FNV-1a over the simulated outputs of a pass: equal fingerprints mean
/// byte-identical simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, v: u64) {
        self.add_bytes(&v.to_le_bytes());
    }

    pub fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_duration(&mut self, d: Duration) {
        self.add(d.as_nanos() as u64);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One recorded span: a call from the benchmark into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request or phase id the span belongs to.
    pub id: u64,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Span recorder. Off, it records nothing and costs one branch per
/// call; on, spans are kept in memory and written out at the end.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Token returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.origin.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Times `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, n), s| {
                (d + (s.end - s.start), n + 1)
            })
    }

    /// Self time per layer (the span name up to its first `.`): each
    /// span's duration minus the part its child spans cover, summed.
    pub fn self_time_by_layer(&self) -> Vec<(String, Duration)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: Vec<(String, Duration)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = (s.end - s.start).saturating_sub(c);
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, d)) => *d += own,
                None => out.push((layer, own)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.id,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
        w.flush()
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: u64,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Median of host timings.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// How a workload summarises the host times of its timed passes.
#[derive(Debug, Clone, Copy)]
pub enum HostStat {
    /// The median: for a few long passes whose program spreads its work
    /// over both cores, which averages out contention on either one.
    Median,
    /// The mean of the slowest quarter of passes (at least one): for many
    /// short single-threaded passes. On a shared virtual machine such a
    /// pass runs about 1.4x slower while the physical core's other
    /// hardware thread is busy, and that state changes every second or so
    /// and can last for whole runs. A median mixes both states in whatever
    /// proportion the run happened to see; the slowest quarter is the busy
    /// state, which nearly every run includes, so it repeats from run to
    /// run. It still moves with the program's speed.
    SlowQuarter,
}

impl HostStat {
    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            HostStat::Median => median(values),
            HostStat::SlowQuarter => {
                let mut v = values.to_vec();
                v.sort_by(|a, b| b.partial_cmp(a).expect("timings are finite"));
                let k = (v.len() as f64 / 4.0).round().max(1.0) as usize;
                v[..k].iter().sum::<f64>() / k as f64
            }
        }
    }
}

/// Nearest-rank percentile of simulated latencies.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut v = samples.to_vec();
    v.sort();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
