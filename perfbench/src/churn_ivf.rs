//! `churn_ivf`: a live corpus with reads and writes interleaved, on one
//! functional device. Bursts of topic-skewed IVF queries alternate with
//! inserts and deletes; one compaction mid-stream replaces the base, so
//! the next burst rebuilds the IVF index. The only workload that writes;
//! the cluster layer and the memo cache stay idle.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apu_sim::{ExecMode, MemoCounters, SimConfig};
use hbm_sim::{DramSpec, MemorySystem};
use rag::{
    ClusteredCorpus, CorpusSpec, CorpusStats, IndexMode, IvfIndex, IvfStats, MutableCorpus,
    QuerySpec, ServeConfig, ServeReport, ShardedRagServer, Snapshot, MAX_BATCH,
};

use crate::calib::churn_ivf as c;
use crate::common::{metric, ms, percentile, Fingerprint, HostStat, Metric, Rng, Tracer};
use crate::probes;
use crate::Workload;

pub struct ChurnIvf {
    seed: u64,
}

impl ChurnIvf {
    pub fn new(seed: u64) -> Self {
        ChurnIvf { seed }
    }
}

fn sim() -> SimConfig {
    SimConfig {
        vr_len: c::VR_LEN,
        ..SimConfig::default()
    }
    .with_exec_mode(ExecMode::Functional)
    .with_l4_bytes(64 << 20)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        k: c::K,
        index: IndexMode::Ivf {
            nlist: c::NLIST,
            nprobe: c::NPROBE,
        },
        ..ServeConfig::default()
    }
}

/// One gap's writes followed by one burst of queries.
struct Burst {
    inserts: Vec<Vec<i16>>,
    deletes: Vec<u32>,
    at: Duration,
    queries: Vec<Vec<i16>>,
}

pub struct Setup {
    corpus: ClusteredCorpus,
    server: ShardedRagServer,
    script: Vec<Burst>,
}

struct BurstOut {
    inserts: Vec<Vec<i16>>,
    deletes: Vec<u32>,
    snapshot: Arc<Snapshot>,
    queries: Vec<Vec<i16>>,
    report: ServeReport,
}

pub struct Output {
    corpus: ClusteredCorpus,
    bursts: Vec<BurstOut>,
    writes: u64,
    max_delta_segments: u64,
    corpus_stats: CorpusStats,
    memo: MemoCounters,
}

/// The pass's clustered corpus, a function of the seed.
fn corpus(seed: u64) -> ClusteredCorpus {
    let spec = CorpusSpec {
        corpus_bytes: 0,
        chunks: c::CHUNKS,
    };
    ClusteredCorpus::new(spec, c::TOPICS, 1, seed)
}

impl Workload for ChurnIvf {
    type Setup = Setup;
    const HOST_STAT: HostStat = HostStat::Median;
    type Output = Output;

    fn setup(&self, tr: &mut Tracer) -> Result<Setup, String> {
        let corpus = corpus(self.seed);
        let mut rng = Rng::new(self.seed, 0xc4);
        // Deletes hit distinct base documents.
        let mut victims: Vec<u32> = (0..c::CHUNKS as u32).collect();
        for i in (1..victims.len()).rev() {
            victims.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut victims = victims.into_iter();
        let mut next_id = 0u64;
        let mut near = |n: usize| -> Vec<Vec<i16>> {
            let topic = rng.below(c::TOPICS as u64) as usize;
            (0..n)
                .map(|_| {
                    next_id += 1;
                    corpus.query_near(topic, next_id)
                })
                .collect()
        };
        // Each gap's inserts aim at one topic, and so does each
        // batch-sized block of a burst's queries: a batch's members share
        // their probe sets, and a burst spreads over several topics.
        let script = (0..c::BURSTS)
            .map(|b| Burst {
                inserts: near(c::INSERTS_PER_GAP),
                deletes: victims.by_ref().take(c::DELETES_PER_GAP).collect(),
                at: c::WARMUP_GAP + c::PERIOD * b as u32,
                queries: (0..c::BURST_QUERIES / MAX_BATCH)
                    .flat_map(|_| near(MAX_BATCH))
                    .collect(),
            })
            .collect();
        let mut server = tr
            .span("serve.build", 0, || {
                ShardedRagServer::new_mutable(&corpus.store, 1, sim(), serve_config())
            })
            .map_err(|e| format!("server construction: {e}"))?;
        // The lazy first IVF build happens in this warm-up drain.
        let warm = corpus.query_near(0, 0);
        tr.span("serve.submit", 0, || server.submit(Duration::ZERO, warm))
            .map_err(|e| format!("warm-up submit: {e}"))?;
        let report = tr
            .span("serve.warmup", 0, || server.drain())
            .map_err(|e| format!("warm-up drain: {e}"))?;
        if report.served() != 1 {
            return Err("the warm-up query was not served".into());
        }
        Ok(Setup {
            corpus,
            server,
            script,
        })
    }

    fn run(&self, setup: Setup, tr: &mut Tracer) -> Result<Output, String> {
        let Setup {
            corpus,
            mut server,
            script,
        } = setup;
        let mut bursts = Vec::with_capacity(script.len());
        let mut writes = 0u64;
        let mut max_delta_segments = 0u64;
        let mut qid = 0u64;
        for (b, burst) in script.into_iter().enumerate() {
            for e in &burst.inserts {
                let open = tr.enter("mutable.write", writes);
                let res = server.insert_doc(e);
                tr.exit(open);
                res.map_err(|e| format!("insert: {e}"))?;
                writes += 1;
            }
            for &doc in &burst.deletes {
                let open = tr.enter("mutable.write", writes);
                let res = server.delete_doc(doc);
                tr.exit(open);
                if !res.map_err(|e| format!("delete: {e}"))? {
                    return Err(format!("document {doc} was not alive"));
                }
                writes += 1;
            }
            // The snapshot the whole burst pins: no write lands between
            // this call and the burst's submissions.
            let snapshot = tr
                .span("mutable.snapshot", b as u64, || server.corpus_snapshot())
                .ok_or("a mutable server has a snapshot")?;
            max_delta_segments = max_delta_segments.max(server.corpus_stats().delta_segments);
            if b == c::COMPACT_AT {
                tr.span("mutable.compact", b as u64, || {
                    server.request_compaction(0, burst.at)
                })
                .map_err(|e| format!("request compaction: {e}"))?
                .ok_or("the compaction burst has deltas to merge")?;
            }
            for (i, q) in burst.queries.iter().enumerate() {
                let at = burst.at + c::QUERY_GAP * i as u32;
                let open = tr.enter("serve.submit", qid);
                let res = server.submit_query(QuerySpec::new(at, q.clone()));
                tr.exit(open);
                res.map_err(|e| format!("submit: {e}"))?;
                qid += 1;
            }
            let report = tr
                .span("serve.drain", b as u64, || server.drain())
                .map_err(|e| format!("drain: {e}"))?;
            bursts.push(BurstOut {
                inserts: burst.inserts,
                deletes: burst.deletes,
                snapshot,
                queries: burst.queries,
                report,
            });
        }
        Ok(Output {
            corpus,
            bursts,
            writes,
            max_delta_segments,
            corpus_stats: server.corpus_stats(),
            memo: server.device_mut(0).memo_counters(),
        })
    }

    fn fingerprint(&self, out: &Output) -> Fingerprint {
        let mut f = Fingerprint::default();
        for b in &out.bursts {
            f.add(b.snapshot.id);
            for q in &b.report.completions {
                f.add(q.ticket.id());
                f.add_duration(q.arrival);
                f.add_duration(q.finished_at);
                f.add(q.batch_size as u64);
                for h in q.hits().unwrap_or(&[]) {
                    f.add(h.chunk as u64);
                    f.add(h.score as u64);
                }
            }
        }
        let s = out.corpus_stats;
        for v in [
            s.live_docs,
            s.base_docs,
            s.delta_docs,
            s.compactions,
            s.snapshots,
        ] {
            f.add(v);
        }
        f
    }

    fn counts(&self, out: &Output) -> (u64, u64) {
        let queries: u64 = out.bursts.iter().map(|b| b.queries.len() as u64).sum();
        let failed: u64 = out.bursts.iter().map(|b| b.report.failed() as u64).sum();
        (queries + out.writes, failed)
    }

    fn check(&self, out: &Output) -> Result<Vec<Metric>, String> {
        let mut found = 0u64;
        let mut wanted = 0u64;
        for b in &out.bursts {
            // Every live document of the pinned snapshot, by id.
            let mut live: HashMap<u32, &[i16]> = HashMap::new();
            for sh in &b.snapshot.shards {
                for seg in &sh.segments {
                    for (local, &doc) in seg.ids.iter().enumerate() {
                        if sh.tombstones.binary_search(&doc).is_err() {
                            live.insert(doc, seg.store.embedding(local));
                        }
                    }
                }
            }
            let first = b
                .report
                .completions
                .iter()
                .map(|q| q.ticket.id())
                .min()
                .unwrap_or(0);
            for q in &b.report.completions {
                let query = &b.queries[(q.ticket.id() - first) as usize];
                let hits = q
                    .hits()
                    .ok_or_else(|| format!("query {} failed: {:?}", q.ticket.id(), q.error()))?;
                for h in hits {
                    let emb = live.get(&h.chunk).ok_or_else(|| {
                        format!(
                            "query {} returned document {} which is not live in snapshot {}",
                            q.ticket.id(),
                            h.chunk,
                            b.snapshot.id
                        )
                    })?;
                    let exact = rag::cpu::dot(emb, query);
                    if h.score != exact {
                        return Err(format!(
                            "query {} document {}: score {} but the flat scan gives {exact}",
                            q.ticket.id(),
                            h.chunk,
                            h.score
                        ));
                    }
                }
                let truth = rag::flat_scan(&b.snapshot, query, c::K);
                wanted += truth.len() as u64;
                found += truth
                    .iter()
                    .filter(|t| hits.iter().any(|h| h.chunk == t.chunk))
                    .count() as u64;
            }
        }
        Ok(vec![metric(
            "recall_at_10",
            found as f64 / wanted.max(1) as f64,
            "frac",
            wanted / c::K as u64,
        )])
    }

    fn end_to_end(&self, out: &Output) -> Vec<Metric> {
        let (attempted, _) = self.counts(out);
        let queries: u64 = out.bursts.iter().map(|b| b.queries.len() as u64).sum();
        let served: u64 = out.bursts.iter().map(|b| b.report.served() as u64).sum();
        let lat: Vec<Duration> = out
            .bursts
            .iter()
            .flat_map(|b| probes::served_latencies(&b.report))
            .collect();
        let slo = Duration::from_secs_f64(c::SLO_MS / 1e3);
        let in_slo = lat.iter().filter(|&&l| l <= slo).count() as u64;
        // Bursts are spaced wider than the compaction, so the stream's
        // simulated time is the sum of the bursts' serving spans.
        let span: f64 = out
            .bursts
            .iter()
            .map(|b| {
                let done = b.report.completions.iter().map(|q| q.finished_at).max();
                done.unwrap_or_default()
                    .saturating_sub(first_arrival(&b.report))
                    .as_secs_f64()
            })
            .sum();
        let device: f64 = out
            .bursts
            .iter()
            .map(|b| probes::device_ms(&b.report.queue))
            .sum();
        vec![
            metric(
                "served_frac",
                served as f64 / queries as f64,
                "frac",
                queries,
            ),
            metric(
                "fail_frac",
                (queries - served) as f64 / attempted as f64,
                "frac",
                attempted,
            ),
            metric(
                "sim_p50_ms",
                ms(percentile(&lat, 0.50)),
                "ms",
                lat.len() as u64,
            ),
            metric(
                "sim_p99_ms",
                ms(percentile(&lat, 0.99)),
                "ms",
                lat.len() as u64,
            ),
            metric("sim_goodput_qps", in_slo as f64 / span, "1/s", queries),
            metric(
                "slo_attain",
                in_slo as f64 / queries as f64,
                "frac",
                queries,
            ),
            metric("sim_device_ms", device, "ms", out.bursts.len() as u64),
        ]
    }

    fn layers(&self, out: &Output, tr: &mut Tracer, traced_passes: u64) -> Vec<Metric> {
        let n = traced_passes as f64;
        let mut m = Vec::new();
        let mean_us = |tr: &Tracer, name: &str| {
            let (d, k) = tr.total(name);
            (d.as_secs_f64() * 1e6 / k.max(1) as f64, k)
        };
        let (build, _) = tr.total("serve.build");
        let (drain, _) = tr.total("serve.drain");
        let (submit_us, n_submit) = mean_us(tr, "serve.submit");
        let (write_us, n_write) = mean_us(tr, "mutable.write");
        let (snap_us, n_snap) = mean_us(tr, "mutable.snapshot");
        m.push(metric(
            "serve.build_s",
            build.as_secs_f64() / n,
            "s",
            traced_passes,
        ));
        m.push(metric("serve.submit_us", submit_us, "us", n_submit));
        m.push(metric(
            "serve.drain_s",
            drain.as_secs_f64() / n,
            "s",
            traced_passes,
        ));
        m.push(metric("mutable.write_us", write_us, "us", n_write));
        m.push(metric("mutable.snapshot_us", snap_us, "us", n_snap));

        let reports: Vec<&ServeReport> = out.bursts.iter().map(|b| &b.report).collect();
        let served: u64 = reports.iter().map(|r| r.served() as u64).sum();
        let rejected: u64 = reports.iter().map(|r| r.queue.rejected).sum();
        m.push(metric("serve.rejected", rejected as f64, "count", served));
        let batch_sum: usize = reports
            .iter()
            .flat_map(|r| r.completions.iter().map(|q| q.batch_size))
            .sum();
        m.push(metric(
            "serve.mean_batch",
            batch_sum as f64 / served.max(1) as f64,
            "queries",
            served,
        ));
        let (busy, wall): (f64, f64) = reports.iter().fold((0.0, 0.0), |(b, w), r| {
            (
                b + r.queue.busy.as_secs_f64(),
                w + r
                    .queue
                    .makespan
                    .saturating_sub(first_arrival(r))
                    .as_secs_f64()
                    * r.queue.cores as f64,
            )
        });
        m.push(metric(
            "queue.occupancy",
            busy / wall.max(f64::MIN_POSITIVE),
            "frac",
            reports.len() as u64,
        ));
        m.extend(probes::stage_means(reports.iter().copied()));
        let tasks: u64 = reports.iter().map(|r| r.queue.dispatched_tasks).sum();
        m.push(probes::queue_dispatch(tr, tasks));

        let mut ivf = IvfStats::default();
        for r in &reports {
            ivf.absorb(&r.ivf);
        }
        let base_chunks: u64 = out
            .bursts
            .iter()
            .map(|b| b.report.ivf.queries * b.snapshot.shards[0].segments[0].len() as u64)
            .sum();
        m.push(metric(
            "ivf.candidate_frac",
            ivf.candidates as f64 / base_chunks.max(1) as f64,
            "frac",
            ivf.queries,
        ));
        m.push(metric(
            "ivf.clusters_scanned",
            ivf.clusters_scanned as f64,
            "count",
            ivf.searches,
        ));
        // The run builds one index per distinct base: the warm-up's and
        // the compacted one. Replay both builds.
        let mut bases: Vec<&rag::EmbeddingStore> = Vec::new();
        for b in &out.bursts {
            let base = &b.snapshot.shards[0].segments[0].store;
            if !bases.iter().any(|s| s.epoch() == base.epoch()) {
                bases.push(base);
            }
        }
        let mut build_s = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            let open = tr.enter("ivf.build", i as u64);
            let t = Instant::now();
            std::hint::black_box(IvfIndex::build(base, c::NLIST));
            build_s.push(t.elapsed().as_secs_f64());
            tr.exit(open);
        }
        let total_build: f64 = build_s.iter().sum();
        m.push(metric(
            "ivf.build_s",
            total_build / build_s.len() as f64,
            "s",
            build_s.len() as u64,
        ));
        m.push(metric("ivf.builds", bases.len() as f64, "count", 1));
        // What the drains spend outside the index builds inside them (the
        // first build is the warm-up's, in set-up).
        let in_pass_builds: f64 = build_s.iter().skip(1).sum();
        m.push(metric(
            "serve.self_s",
            drain.as_secs_f64() / n - in_pass_builds,
            "s",
            traced_passes,
        ));

        m.push(metric(
            "mutable.delta_segments",
            out.max_delta_segments as f64,
            "count",
            out.bursts.len() as u64,
        ));
        m.push(metric(
            "mutable.compactions",
            out.corpus_stats.compactions as f64,
            "count",
            1,
        ));
        m.push(compaction_probe(tr, out));

        m.extend(probes::memo_metrics(out.memo));
        m
    }
}

/// Per burst: the delta segments its snapshot scans, and the median and
/// slowest served latency. `perfbench --calibrate` prints these.
pub fn burst_profile(out: &Output) -> Vec<(usize, Duration, Duration)> {
    out.bursts
        .iter()
        .map(|b| {
            let lat = probes::served_latencies(&b.report);
            let deltas = b.snapshot.shards[0].segments.len() - 1;
            (deltas, percentile(&lat, 0.5), percentile(&lat, 1.0))
        })
        .collect()
}

fn first_arrival(r: &ServeReport) -> Duration {
    r.completions
        .iter()
        .map(|q| q.arrival)
        .min()
        .unwrap_or_default()
}

/// Simulated duration of the run's compaction, replayed on a fresh
/// device from a corpus that received the same writes.
fn compaction_probe(tr: &mut Tracer, out: &Output) -> Metric {
    let mut mc = MutableCorpus::new(&out.corpus.store, 1);
    for b in &out.bursts[..=c::COMPACT_AT] {
        for e in &b.inserts {
            mc.insert(e).expect("replayed insert is valid");
        }
        for &doc in &b.deletes {
            mc.delete(doc);
        }
        mc.snapshot();
    }
    mc.request_compaction(0, Duration::ZERO)
        .expect("shard 0 exists")
        .expect("the replayed writes leave deltas to merge");
    let plan = mc.take_plans().remove(0);
    let mut dev = apu_sim::ApuDevice::try_new(sim()).expect("churn config is valid");
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let open = tr.enter("mutable.compaction", 0);
    let (report, _) = rag::mutable::run_compaction_task(&mut dev, &mut hbm, &plan)
        .expect("replayed compaction runs");
    tr.exit(open);
    metric("mutable.compaction_ms", ms(report.duration), "ms", 1)
}
