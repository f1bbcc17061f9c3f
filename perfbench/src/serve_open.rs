//! `serve_open`: an open-loop Poisson stream of flat exact-search
//! queries on a sharded, replicated server, timing-only, at two fixed
//! offered rates. Loads the serving layers (queue dispatch,
//! scatter-gather and merge, HBM stream, memo replay); the functional
//! interpreter, IVF and the live corpus stay idle.

use std::time::Duration;

use apu_sim::{ExecMode, MemoCounters, SimConfig};
use rag::corpus::EMBED_DIM;
use rag::{CorpusSpec, EmbeddingStore, ServeConfig, ServeReport, ShardedRagServer};

use crate::calib::serve_open as c;
use crate::common::{metric, ms, percentile, Fingerprint, HostStat, Metric, Rng, Tracer};
use crate::probes;
use crate::Workload;

pub struct ServeOpen {
    seed: u64,
}

impl ServeOpen {
    pub fn new(seed: u64) -> Self {
        ServeOpen { seed }
    }
}

/// The simulator configuration every serving device uses.
pub fn sim() -> SimConfig {
    SimConfig::default()
        .with_l4_bytes(1 << 20)
        .with_exec_mode(ExecMode::TimingOnly)
        .with_fast_forward(true)
}

pub fn store(seed: u64) -> EmbeddingStore {
    EmbeddingStore::size_only(CorpusSpec::from_corpus_bytes(c::CORPUS_BYTES), seed)
}

/// One offered rate's stream and server, ready to submit.
pub struct RateSetup {
    offered_qps: f64,
    arrivals: Vec<Duration>,
    queries: Vec<Vec<i16>>,
    server: ShardedRagServer,
}

pub struct RateOut {
    pub offered_qps: f64,
    /// Simulated seconds from the start of the stream to its last arrival.
    pub stream_s: f64,
    pub attempted: u64,
    pub rejected: u64,
    pub report: ServeReport,
    pub memo: MemoCounters,
}

pub struct Output {
    /// `[lo, hi]`.
    pub rates: Vec<RateOut>,
    pub store: EmbeddingStore,
}

impl RateOut {
    fn in_slo(&self) -> u64 {
        let slo = Duration::from_secs_f64(c::SLO_MS / 1e3);
        self.report
            .completions
            .iter()
            .filter(|q| q.is_ok() && q.latency() <= slo)
            .count() as u64
    }
}

impl Workload for ServeOpen {
    type Setup = (Vec<RateSetup>, EmbeddingStore);
    const HOST_STAT: HostStat = HostStat::SlowQuarter;
    type Output = Output;

    fn setup(&self, tr: &mut Tracer) -> Result<Self::Setup, String> {
        let store = store(self.seed);
        let mut rates = Vec::new();
        for (i, &offered_qps) in [c::LO_QPS, c::HI_QPS].iter().enumerate() {
            let mut rng = Rng::new(self.seed, 1 + i as u64);
            let mut t = 0.0f64;
            let arrivals = (0..c::STREAM)
                .map(|_| {
                    t += rng.exp_gap(offered_qps);
                    Duration::from_secs_f64(t)
                })
                .collect();
            let queries = (0..c::STREAM)
                .map(|_| (0..EMBED_DIM).map(|_| rng.below(13) as i16 - 6).collect())
                .collect();
            let cfg = ServeConfig {
                replicas: c::REPLICAS,
                ..ServeConfig::default()
            };
            let server = tr
                .span("serve.build", i as u64, || {
                    ShardedRagServer::new(&store, c::SHARDS, sim(), cfg)
                })
                .map_err(|e| format!("server construction: {e}"))?;
            rates.push(RateSetup {
                offered_qps,
                arrivals,
                queries,
                server,
            });
        }
        Ok((rates, store))
    }

    fn run(&self, (rates, store): Self::Setup, tr: &mut Tracer) -> Result<Output, String> {
        let mut out = Vec::new();
        for (i, r) in rates.into_iter().enumerate() {
            let RateSetup {
                offered_qps,
                arrivals,
                queries,
                mut server,
            } = r;
            let attempted = arrivals.len() as u64;
            let stream_s = arrivals.last().map_or(0.0, Duration::as_secs_f64);
            let mut rejected = 0u64;
            // The whole stream is submitted before the drain, as a user of
            // the open-loop API would: every rejection is counted.
            for (q, (at, query)) in arrivals.into_iter().zip(queries).enumerate() {
                let open = tr.enter("serve.submit", q as u64);
                let res = server.submit(at, query);
                tr.exit(open);
                if res.is_err() {
                    rejected += 1;
                }
            }
            let report = tr
                .span("serve.drain", i as u64, || server.drain())
                .map_err(|e| format!("drain at {offered_qps} QPS: {e}"))?;
            let mut memo = MemoCounters::default();
            for s in 0..server.shard_count() {
                for rep in 0..server.replica_count() {
                    let m = server.replica_device_mut(s, rep).memo_counters();
                    memo.hits += m.hits;
                    memo.misses += m.misses;
                    memo.bypassed += m.bypassed;
                }
            }
            out.push(RateOut {
                offered_qps,
                stream_s,
                attempted,
                rejected,
                report,
                memo,
            });
        }
        Ok(Output { rates: out, store })
    }

    fn fingerprint(&self, out: &Output) -> Fingerprint {
        let mut f = Fingerprint::default();
        for r in &out.rates {
            f.add(r.rejected);
            for q in &r.report.completions {
                f.add(q.ticket.id());
                f.add(q.is_ok() as u64);
                f.add_duration(q.arrival);
                f.add_duration(q.started_at);
                f.add_duration(q.finished_at);
                f.add(q.batch_size as u64);
                f.add_duration(q.stages.queue_wait);
                f.add_duration(q.stages.dispatch);
                f.add_duration(q.stages.dma);
                f.add_duration(q.stages.device);
            }
            f.add_duration(r.report.queue.busy);
            f.add_duration(r.report.queue.makespan);
        }
        f
    }

    fn counts(&self, out: &Output) -> (u64, u64) {
        // Submit-time rejections are the known admission defect; they
        // are counted in `served_frac`, `slo_attain` and `serve.rejected`
        // rather than here (see README).
        let attempted = out.rates.iter().map(|r| r.attempted).sum();
        let failed = out.rates.iter().map(|r| r.report.failed() as u64).sum();
        (attempted, failed)
    }

    fn check(&self, out: &Output) -> Result<Vec<Metric>, String> {
        for r in &out.rates {
            let served = r.report.served() as u64;
            let failed = r.report.failed() as u64;
            if r.attempted != served + failed + r.rejected {
                return Err(format!(
                    "{} QPS: attempted {} != served {served} + failed {failed} + rejected {}",
                    r.offered_qps, r.attempted, r.rejected
                ));
            }
            for q in r.report.completions.iter().filter(|q| q.is_ok()) {
                if q.stages.total() != q.latency() {
                    return Err(format!(
                        "{} QPS: query {} stages sum to {:?} but latency is {:?}",
                        r.offered_qps,
                        q.ticket.id(),
                        q.stages.total(),
                        q.latency()
                    ));
                }
            }
        }
        // Timing-only retrieval returns no chunk ids, so recall cannot be
        // measured here; the flat scan is exact (0 samples says so).
        Ok(vec![metric("recall_at_10", 1.0, "frac", 0)])
    }

    fn end_to_end(&self, out: &Output) -> Vec<Metric> {
        let (lo, hi) = (&out.rates[0], &out.rates[1]);
        let attempted: u64 = out.rates.iter().map(|r| r.attempted).sum();
        let served: u64 = out.rates.iter().map(|r| r.report.served() as u64).sum();
        let in_slo: u64 = out.rates.iter().map(RateOut::in_slo).sum();
        let lo_lat = probes::served_latencies(&lo.report);
        let hi_lat = probes::served_latencies(&hi.report);
        // Rejected queries are misses too, so goodput is taken over the
        // whole offered stream: up to its last arrival.
        let hi_span = hi.stream_s;
        let device: f64 = out
            .rates
            .iter()
            .flat_map(|r| &r.report.shards)
            .map(probes::device_ms)
            .sum();
        let devices: usize = out.rates.iter().map(|r| r.report.shards.len()).sum();
        vec![
            metric(
                "served_frac",
                served as f64 / attempted as f64,
                "frac",
                attempted,
            ),
            metric(
                "fail_frac",
                1.0 - served as f64 / attempted as f64,
                "frac",
                attempted,
            ),
            metric(
                "sim_p50_ms",
                ms(percentile(&lo_lat, 0.50)),
                "ms",
                lo_lat.len() as u64,
            ),
            metric(
                "sim_p99_ms",
                ms(percentile(&lo_lat, 0.99)),
                "ms",
                lo_lat.len() as u64,
            ),
            metric(
                "sim_goodput_qps",
                hi.in_slo() as f64 / hi_span,
                "1/s",
                hi.attempted,
            ),
            metric(
                "slo_attain",
                in_slo as f64 / attempted as f64,
                "frac",
                attempted,
            ),
            metric("sim_device_ms", device, "ms", devices as u64),
            // Context rows, printed but not part of the result JSON.
            metric(
                "hi.sim_p50_ms",
                ms(percentile(&hi_lat, 0.50)),
                "ms",
                hi_lat.len() as u64,
            ),
            metric(
                "hi.sim_p99_ms",
                ms(percentile(&hi_lat, 0.99)),
                "ms",
                hi_lat.len() as u64,
            ),
            metric("lo.occupancy", lo.report.queue.occupancy(), "frac", 1),
            metric("hi.occupancy", hi.report.queue.occupancy(), "frac", 1),
        ]
    }

    fn layers(&self, out: &Output, tr: &mut Tracer, traced_passes: u64) -> Vec<Metric> {
        let (lo, hi) = (&out.rates[0], &out.rates[1]);
        let n = traced_passes as f64;
        let mut m = Vec::new();
        let (build, _) = tr.total("serve.build");
        let (submit, n_submit) = tr.total("serve.submit");
        let (drain, _) = tr.total("serve.drain");
        m.push(metric(
            "serve.build_s",
            build.as_secs_f64() / n,
            "s",
            traced_passes,
        ));
        m.push(metric(
            "serve.submit_us",
            submit.as_secs_f64() * 1e6 / n_submit as f64,
            "us",
            n_submit,
        ));
        m.push(metric(
            "serve.drain_s",
            drain.as_secs_f64() / n,
            "s",
            traced_passes,
        ));
        m.push(metric(
            "serve.rejected",
            out.rates.iter().map(|r| r.rejected).sum::<u64>() as f64,
            "count",
            out.rates.iter().map(|r| r.attempted).sum(),
        ));
        m.push(metric(
            "serve.mean_batch",
            hi.report.mean_batch_size(),
            "queries",
            hi.report.completions.len() as u64,
        ));
        m.push(metric(
            "queue.occupancy",
            hi.report.queue.occupancy(),
            "frac",
            hi.report.shards.len() as u64,
        ));
        m.extend(probes::stage_means([&lo.report]));

        let tasks: u64 = out
            .rates
            .iter()
            .map(|r| r.report.queue.dispatched_tasks)
            .sum();
        m.push(probes::queue_dispatch(tr, tasks));

        let mut memo = MemoCounters::default();
        for r in &out.rates {
            memo.hits += r.memo.hits;
            memo.misses += r.memo.misses;
            memo.bypassed += r.memo.bypassed;
        }
        m.extend(probes::memo_metrics(memo));

        // Replay every rate's dispatch shapes, per shard device, through
        // the batch kernel and, separately, through the HBM stream.
        let shapes: Vec<Vec<usize>> = out
            .rates
            .iter()
            .map(|r| probes::dispatch_shapes(&r.report))
            .collect();
        let replay = probes::replay_sharded(tr, &out.store, c::SHARDS, c::REPLICAS, &shapes, sim());
        let batch_s = replay.batch_total.as_secs_f64() - replay.hbm_total.as_secs_f64();
        m.push(metric("batch.replay_s", batch_s, "s", replay.dispatches));
        m.push(metric(
            "hbm.replay_s",
            replay.hbm_total.as_secs_f64(),
            "s",
            replay.dispatches,
        ));
        m.push(metric(
            "hbm.sim_gbps",
            replay.sim_gbps,
            "GB/s",
            replay.dispatches,
        ));
        m.push(metric(
            "hbm.row_hit_rate",
            replay.row_hit_rate,
            "frac",
            replay.dispatches,
        ));
        m.push(metric(
            "serve.self_s",
            drain.as_secs_f64() / n - batch_s - replay.hbm_total.as_secs_f64(),
            "s",
            traced_passes,
        ));
        let shard0 = out.store.shards(c::SHARDS).remove(0).store;
        m.push(probes::batch_walk(tr, &shard0, sim()));
        m
    }
}
