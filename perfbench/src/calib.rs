//! Frozen workload constants. They were calibrated once (see
//! `perfbench/README.md` for the record) and are never recomputed from
//! the program during a run, so a faster modelled device is measured
//! under the same offered load. `perfbench --calibrate` prints the
//! figures they were derived from.

use apu_sim::SimConfig;
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::EMBED_DIM;
use rag::MAX_BATCH;

pub mod serve_open {
    /// The paper's smallest RAG point (163,000 chunks), size-only.
    pub const CORPUS_BYTES: u64 = 10_000_000_000;
    pub const SHARDS: usize = 4;
    pub const REPLICAS: usize = 2;
    /// Queries submitted per offered rate: longer than the default
    /// `max_pending` (1,024) on purpose.
    pub const STREAM: usize = 2000;
    /// About 0.6x and 1.2x of the calibrated capacity.
    pub const LO_QPS: f64 = 9_000.0;
    pub const HI_QPS: f64 = 18_000.0;
    /// Latency objective of one query.
    pub const SLO_MS: f64 = 25.0;
}

pub mod churn_ivf {
    use std::time::Duration;

    pub const CHUNKS: usize = 16_384;
    pub const TOPICS: usize = 64;
    /// 512-lane VRs put the corpus at 32 tiles, the many-tile regime in
    /// which cluster pruning pays.
    pub const VR_LEN: usize = 512;
    pub const NLIST: usize = 64;
    pub const NPROBE: usize = 2;
    pub const K: usize = 10;
    pub const BURSTS: usize = 8;
    /// Eight full batches per burst, one topic each.
    pub const BURST_QUERIES: usize = 96;
    /// The churn rate of the repository's own live-corpus study
    /// (`serve_mutation`): 8 inserts and 3 deletes per 96-query burst.
    pub const INSERTS_PER_GAP: usize = 8;
    pub const DELETES_PER_GAP: usize = 3;
    /// The burst whose drain runs the compaction: mid-stream, so four
    /// bursts run on the old base and four on the new one.
    pub const COMPACT_AT: usize = 3;
    pub const WARMUP_GAP: Duration = Duration::from_millis(50);
    /// Longer than the compaction (about 0.75 s simulated), so each
    /// burst's drain finishes its own device work.
    pub const PERIOD: Duration = Duration::from_millis(1000);
    pub const QUERY_GAP: Duration = Duration::from_micros(20);
    /// Above the four-delta-segment latency (slowest about 52 ms), below
    /// the two batches the compaction delays (72-80 ms).
    pub const SLO_MS: f64 = 60.0;
}

pub mod paper_suite {
    /// Application names, in run order.
    pub const APPS: [&str; 7] = [
        "histogram",
        "linreg",
        "matmul",
        "kmeans",
        "revindex",
        "strmatch",
        "wordcount",
    ];
    /// Input sizes of the `fig13` default scale (1/256 of the paper's,
    /// with the runner's floors).
    pub const HISTOGRAM_BYTES: usize = 5_859_375;
    pub const LINREG_POINTS: usize = 1 << 20;
    pub const MATMUL_MNK: (usize, usize, usize) = (128, 2048, 256);
    pub const KMEANS_POINTS: usize = 32_768;
    pub const REVINDEX_BYTES: usize = 2 << 20;
    pub const STRMATCH_BYTES: usize = 2 << 20;
    pub const WORDCOUNT_BYTES: usize = 1 << 20;
    /// The seed draws each byte-sized input between its base size and
    /// this much more, so no run falls below the `fig13` default scale.
    /// Each range spans a few latency steps of its app: about 12% of the
    /// input for strmatch and revindex, about 4% for histogram, which
    /// also carries most of the host time.
    pub const SIZE_GROWTH: f64 = 0.25;
    pub const HISTOGRAM_GROWTH: f64 = 0.08;
    /// Per-application latency budgets (simulated ms), in `APPS` order:
    /// 1.25x each app's slowest all-opts latency over seeds 1-10, rounded
    /// up to 0.1 ms.
    pub const SLO_MS: [f64; 7] = [20.4, 3.3, 6.7, 3.8, 4.8, 4.4, 2.9];
}

/// Prints the calibration the constants above were frozen from.
pub fn calibrate() {
    let sim = crate::serve_open::sim();
    let cores = sim.cores;
    let store = crate::serve_open::store(1);
    let shard0 = store.shards(serve_open::SHARDS).remove(0).store;
    let mut dev = apu_sim::ApuDevice::try_new(SimConfig {
        fast_forward: false,
        ..sim
    })
    .expect("serving config is valid");
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let batch: Vec<Vec<i16>> = (0..MAX_BATCH).map(|_| vec![1; EMBED_DIM]).collect();
    let r = rag::retrieve_batch(&mut dev, &mut hbm, &shard0, &batch, crate::probes::K)
        .expect("calibration batch");
    let service_ms = r.breakdown.total_ms();
    let capacity = (cores * serve_open::REPLICAS * MAX_BATCH) as f64 / (service_ms / 1e3);
    println!(
        "serve_open: {} chunks, {} shards x {} replicas, full-batch ({MAX_BATCH}) service per shard {service_ms:.4} ms",
        store.spec().chunks,
        serve_open::SHARDS,
        serve_open::REPLICAS
    );
    println!(
        "  capacity = cores {cores} x replicas {} x MAX_BATCH {MAX_BATCH} / service = {capacity:.0} QPS",
        serve_open::REPLICAS
    );
    println!(
        "  serve_qps's one-core formula (MAX_BATCH / service) gives {:.0} QPS per replica set, {cores}x too low",
        capacity / (cores * serve_open::REPLICAS) as f64
    );
    println!(
        "  lo {:.0} QPS = {:.2}x, hi {:.0} QPS = {:.2}x",
        serve_open::LO_QPS,
        serve_open::LO_QPS / capacity,
        serve_open::HI_QPS,
        serve_open::HI_QPS / capacity
    );
    let churn = crate::churn_ivf::ChurnIvf::new(1);
    let mut tr = crate::common::Tracer::new(false);
    let setup = crate::Workload::setup(&churn, &mut tr).expect("churn set-up");
    let out = crate::Workload::run(&churn, setup, &mut tr).expect("churn run");
    println!(
        "churn_ivf (seed 1): {} bursts of {} queries, {} inserts + {} deletes per gap, compaction at burst {}",
        churn_ivf::BURSTS,
        churn_ivf::BURST_QUERIES,
        churn_ivf::INSERTS_PER_GAP,
        churn_ivf::DELETES_PER_GAP,
        churn_ivf::COMPACT_AT
    );
    for (b, (deltas, p50, max)) in crate::churn_ivf::burst_profile(&out).iter().enumerate() {
        println!(
            "  burst {b:>2}: {deltas} delta segment(s), served p50 {:>8.3} ms, slowest {:>8.3} ms",
            crate::common::ms(*p50),
            crate::common::ms(*max)
        );
    }
    let mut slowest = [0.0f64; paper_suite::APPS.len()];
    for seed in 1..=10 {
        let suite = crate::paper_suite::PaperSuite::new(seed);
        let mut tr = crate::common::Tracer::new(false);
        let setup = crate::Workload::setup(&suite, &mut tr).expect("suite inputs");
        let runs = crate::Workload::run(&suite, setup, &mut tr).expect("suite runs");
        for (s, run) in slowest.iter_mut().zip(&runs) {
            *s = s.max(run.sim_ms());
        }
    }
    println!(
        "paper_suite (seeds 1-10): slowest all-opts simulated latency per app, and 1.25x of it:"
    );
    for (name, ms) in paper_suite::APPS.iter().zip(slowest) {
        println!(
            "  {name:<10} {ms:>9.4} ms   budget {:.1} ms",
            (ms * 1.25 * 10.0).ceil() / 10.0
        );
    }
}
