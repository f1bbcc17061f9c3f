//! Layer probes: replay a pass's work through one layer's public
//! functions at a time, so each layer's host cost is measured on its
//! own. Every probe records its own span.

use std::time::{Duration, Instant};

use apu_sim::core::CycleClass;
use apu_sim::{
    ApuDevice, Cycles, DeviceQueue, MemoCounters, QueueConfig, QueueStats, SimConfig, TaskSpec,
};
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::EMBED_DIM;
use rag::{EmbeddingStore, ServeReport, MAX_BATCH};

use crate::common::{median, metric, ms, Metric, Tracer};

/// Retrieved chunks per query on `serve_open` (the `ServeConfig` default).
pub const K: usize = 5;

pub fn served_latencies(report: &ServeReport) -> Vec<Duration> {
    report
        .completions
        .iter()
        .filter(|q| q.is_ok())
        .map(|q| q.latency())
        .collect()
}

/// Simulated busy time of one device queue, in device-milliseconds
/// (busy core-time over cores).
pub fn device_ms(q: &QueueStats) -> f64 {
    ms(q.busy) / q.cores.max(1) as f64
}

/// `StageBreakdown` totals per served query (the critical shard's
/// breakdown, which sums to the query's latency).
pub fn stage_means<'a>(reports: impl IntoIterator<Item = &'a ServeReport>) -> Vec<Metric> {
    let mut total = apu_sim::StageBreakdown::default();
    let mut served = 0u64;
    for r in reports {
        for q in r.completions.iter().filter(|q| q.is_ok()) {
            total.accumulate(&q.stages);
            served += 1;
        }
    }
    let per = |d: Duration| ms(d) / served.max(1) as f64;
    vec![
        metric("queue.wait_ms", per(total.queue_wait), "ms", served),
        metric("queue.dispatch_ms", per(total.dispatch), "ms", served),
        metric("queue.dma_ms", per(total.dma), "ms", served),
        metric("queue.device_ms", per(total.device), "ms", served),
    ]
}

pub fn memo_metrics(m: MemoCounters) -> Vec<Metric> {
    let base = m.hits + m.misses + m.bypassed;
    vec![
        metric("memo.hits", m.hits as f64, "count", 1),
        metric("memo.misses", m.misses as f64, "count", 1),
        metric("memo.bypassed", m.bypassed as f64, "count", 1),
        metric(
            "memo.hit_ratio",
            m.hits as f64 / base.max(1) as f64,
            "frac",
            base,
        ),
    ]
}

/// Host time per task of the `DeviceQueue` dispatcher alone: `tasks`
/// fixed-cycle kernels (the workload's task count) through one queue.
pub fn queue_dispatch(tr: &mut Tracer, tasks: u64) -> Metric {
    let tasks = tasks.max(1);
    let mut dev = ApuDevice::try_new(SimConfig::default()).expect("default config is valid");
    let cfg = QueueConfig::default().with_max_pending(tasks as usize + 1);
    let open = tr.enter("queue.probe", tasks);
    let t = Instant::now();
    {
        let mut q = DeviceQueue::new(&mut dev, cfg);
        for i in 0..tasks {
            let spec = TaskSpec::kernel(|ctx| {
                ctx.core_mut()
                    .charge_cycles(CycleClass::Compute, Cycles::new(1000));
                Ok(())
            })
            .at(Duration::from_micros(i));
            q.submit(spec).expect("probe queue holds every task");
        }
        let done = q.drain().expect("probe drain");
        assert_eq!(done.len() as u64, tasks, "every probe task completes");
    }
    let elapsed = t.elapsed();
    tr.exit(open);
    metric(
        "queue.dispatch_us",
        elapsed.as_secs_f64() * 1e6 / tasks as f64,
        "us",
        tasks,
    )
}

/// Batch sizes of one shard's dispatches, rebuilt from the completions:
/// `n_b / b` dispatches of size `b` when `n_b` served queries report
/// batch size `b`. Completions carry the critical shard's batch size,
/// so the shapes are those of the critical shard.
pub fn dispatch_shapes(report: &ServeReport) -> Vec<usize> {
    let mut by_size = [0usize; MAX_BATCH + 1];
    for q in report.completions.iter().filter(|q| q.is_ok()) {
        by_size[q.batch_size.min(MAX_BATCH)] += 1;
    }
    let mut shapes = Vec::new();
    for (b, &n) in by_size.iter().enumerate().skip(1) {
        shapes.extend(std::iter::repeat_n(b, n.div_ceil(b)));
    }
    shapes
}

pub struct Replay {
    /// Host time of every dispatch through `retrieve_batch` (kernel,
    /// memo and the HBM stream it issues).
    pub batch_total: Duration,
    /// Host time of the same dispatches' HBM streams alone.
    pub hbm_total: Duration,
    pub dispatches: u64,
    pub sim_gbps: f64,
    pub row_hit_rate: f64,
}

/// Replays `streams` (one list of dispatch shapes per served stream) on
/// fresh devices, one per (shard, replica), dealing a shard's
/// dispatches round-robin over its replicas as the server's read
/// balancing does.
pub fn replay_sharded(
    tr: &mut Tracer,
    store: &EmbeddingStore,
    shards: usize,
    replicas: usize,
    streams: &[Vec<usize>],
    sim: SimConfig,
) -> Replay {
    let slices: Vec<EmbeddingStore> = store.shards(shards).into_iter().map(|s| s.store).collect();
    let batch: Vec<Vec<i16>> = (0..MAX_BATCH)
        .map(|i| vec![(i % 7) as i16 - 3; EMBED_DIM])
        .collect();
    let mut out = Replay {
        batch_total: Duration::ZERO,
        hbm_total: Duration::ZERO,
        dispatches: 0,
        sim_gbps: 0.0,
        row_hit_rate: 0.0,
    };
    let (mut bytes, mut ns) = (0u64, 0f64);
    let (mut hits, mut accesses) = (0u64, 0u64);
    for (si, shapes) in streams.iter().enumerate() {
        let n_dev = slices.len() * replicas;
        let mut devs: Vec<ApuDevice> = (0..n_dev)
            .map(|_| ApuDevice::try_new(sim.clone()).expect("serving config is valid"))
            .collect();
        let mut hbms: Vec<MemorySystem> = (0..n_dev)
            .map(|_| MemorySystem::new(DramSpec::hbm2e_16gb()))
            .collect();
        let open = tr.enter("batch.replay", si as u64);
        let t = Instant::now();
        for (s, slice) in slices.iter().enumerate() {
            for (j, &b) in shapes.iter().enumerate() {
                let d = s * replicas + j % replicas;
                rag::retrieve_batch(&mut devs[d], &mut hbms[d], slice, &batch[..b], K)
                    .expect("replayed dispatch succeeds");
            }
        }
        out.batch_total += t.elapsed();
        tr.exit(open);

        let mut hbms: Vec<MemorySystem> = (0..n_dev)
            .map(|_| MemorySystem::new(DramSpec::hbm2e_16gb()))
            .collect();
        let open = tr.enter("hbm.replay", si as u64);
        let t = Instant::now();
        for (s, slice) in slices.iter().enumerate() {
            for j in 0..shapes.len() {
                let r = hbms[s * replicas + j % replicas]
                    .stream_read(0, slice.spec().embedding_bytes());
                bytes += r.bytes;
                ns += r.ns;
            }
        }
        out.hbm_total += t.elapsed();
        tr.exit(open);
        for h in &hbms {
            let st = h.stats();
            hits += st.row_hits;
            accesses += st.reads + st.writes;
        }
        out.dispatches += (slices.len() * shapes.len()) as u64;
    }
    out.sim_gbps = if ns > 0.0 { bytes as f64 / ns } else { 0.0 };
    out.row_hit_rate = hits as f64 / accesses.max(1) as f64;
    out
}

/// Host time of one full-batch kernel with the memo cache off (median
/// of a few runs on fresh devices).
pub fn batch_walk(tr: &mut Tracer, slice: &EmbeddingStore, sim: SimConfig) -> Metric {
    let batch: Vec<Vec<i16>> = (0..MAX_BATCH)
        .map(|i| vec![(i % 7) as i16 - 3; EMBED_DIM])
        .collect();
    const RUNS: usize = 5;
    let mut us = Vec::with_capacity(RUNS);
    for i in 0..RUNS {
        let mut dev = ApuDevice::try_new(sim.clone().with_fast_forward(false))
            .expect("serving config is valid");
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let open = tr.enter("batch.walk", i as u64);
        let t = Instant::now();
        rag::retrieve_batch(&mut dev, &mut hbm, slice, &batch, K).expect("full batch runs");
        us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.exit(open);
    }
    metric("batch.walk_us", median(&us), "us", RUNS as u64)
}
