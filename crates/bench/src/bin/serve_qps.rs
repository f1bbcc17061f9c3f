//! Serving study: sustained throughput vs. tail latency for an
//! open-loop Poisson query stream served through the device command
//! queue ([`rag::ShardedRagServer`], all-opts retrieval kernel,
//! timing-only).
//!
//! Each offered rate submits a seeded Poisson arrival stream; the server
//! groups arrivals into VR-limited batches and dispatches them through
//! the [`apu_sim::DeviceQueue`] virtual timeline, reporting sustained
//! QPS, p50/p99 end-to-end latency, mean batch size, and device
//! occupancy. Past saturation the sustained rate plateaus at the
//! batch-amortized service capacity while tail latency grows with the
//! backlog — the classic open-loop serving curve.
//!
//! With `--shards N` the same stream is also served by an N-device
//! [`rag::ShardedRagServer`]: the corpus splits into N contiguous
//! shards, every query fans out to all shards in parallel, and each
//! shard streams 1/N of the embeddings — so the per-query service floor
//! drops by ~N and the saturation knee moves up accordingly. The final
//! summary compares saturation QPS across shard counts at equal corpus
//! size.
//!
//! Every sweep runs with the fast-forward replay cache on
//! ([`SimConfig::with_fast_forward`]), which leaves every simulated
//! number unchanged. `--smoke` runs its sweep with the cache off and
//! then on, asserts that the two tables are identical, and writes both
//! wall-clock times to `BENCH_serve_qps.json`.

use std::time::{Duration, Instant};

use apu_sim::{ExecMode, SimConfig};
use cis_bench::table::{print_table, section};
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::EMBED_DIM;
use rag::{CorpusSpec, EmbeddingStore, ServeConfig, ShardedRagServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let cfg = cis_bench::parse_args();
    // A sharded comparison needs a corpus spanning several VR tiles per
    // device — below ~3 tiles the kernel cost is the fixed per-tile
    // floor and every shard count ties — so `--shards` raises the
    // corpus floor to where tile count (and the embedding stream) still
    // scales down with the shard size.
    // `--smoke` trades sweep breadth for per-dispatch weight: two
    // offered rates on a corpus big enough that the tile-by-tile timing
    // walk dominates the wall clock, so the fast-forward replay cache
    // has a measurable effect.
    let min_bytes = if cfg.shards > 1 {
        6.0e9
    } else if cfg.smoke {
        15.0e9
    } else {
        32.0e6
    };
    let corpus_bytes = (10.0e9 * cfg.scale).max(min_bytes) as u64;
    let spec = CorpusSpec::from_corpus_bytes(corpus_bytes);
    let store = EmbeddingStore::size_only(spec, cfg.seed);
    // Both smoke rates sit past the saturation knee, so continuous
    // batching forms full batches and the dispatch stream repeats one
    // kernel signature — the replay cache's best case, and the regime
    // where the serving study spends its time anyway.
    let queries_per_point = if cfg.smoke { 1500usize } else { 120usize };
    let offered_fracs: &[f64] = if cfg.smoke {
        &[1.1, 1.5]
    } else {
        &[0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.5]
    };
    let shard_axis: Vec<usize> = if cfg.shards > 1 {
        vec![1, cfg.shards]
    } else {
        vec![1]
    };
    // The smoke run times the replay cache against the full walk.
    let legs = if cfg.smoke {
        vec![sim().with_fast_forward(false), sim()]
    } else {
        vec![sim()]
    };
    let mut walls = vec![Duration::ZERO; legs.len()];

    let mut saturation: Vec<(usize, f64, Duration)> = Vec::new();
    for &n_shards in &shard_axis {
        section(&format!(
            "serving: open-loop Poisson stream on the {} corpus, {n_shards} shard(s) \
             (all-opts, timing-only)",
            cis_bench::fmt_bytes(corpus_bytes)
        ));

        // Calibrate the sweep around the cluster's service capacity:
        // every query costs one batched kernel on every shard and the
        // shards run in parallel, so the knee sits at the (largest)
        // shard's amortized full-batch per-query rate.
        let shard0 = store.shards(n_shards).remove(0).store;
        let per_query_s = {
            let mut dev = probe_device();
            let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
            let batch: Vec<Vec<i16>> = (0..rag::MAX_BATCH).map(query).collect();
            let r = rag::retrieve_batch(&mut dev, &mut hbm, &shard0, &batch, 5)
                .expect("probe batch retrieval");
            r.breakdown.total_ms() / 1e3 / rag::MAX_BATCH as f64
        };
        let capacity_qps = 1.0 / per_query_s;

        let sweep = |sim: &SimConfig| {
            let mut rows = Vec::new();
            let mut best_qps = 0.0f64;
            let mut best_p99 = Duration::ZERO;
            for &frac in offered_fracs {
                let offered = capacity_qps * frac;
                let mut server =
                    ShardedRagServer::new(&store, n_shards, sim.clone(), ServeConfig::default())
                        .expect("cluster construction");

                // Seeded Poisson arrivals: exponential inter-arrival times by
                // inverse CDF, identical across offered-rate runs up to scale.
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let mut t = 0.0f64;
                let mut rejected = 0u64;
                for i in 0..queries_per_point {
                    let u: f64 = rng.gen();
                    t += -(1.0 - u).ln() / offered;
                    if server.submit(Duration::from_secs_f64(t), query(i)).is_err() {
                        rejected += 1;
                    }
                }
                let report = server.drain().expect("serve drain");
                if report.throughput_qps() > best_qps {
                    best_qps = report.throughput_qps();
                    best_p99 = report.latency_percentile(0.99);
                }

                // Per-stage attribution of the total latency budget: as the
                // offered rate crosses capacity, the queue-wait share takes
                // over the whole budget.
                let stages = report.stage_totals();
                let total = stages.total().as_secs_f64().max(f64::MIN_POSITIVE);
                let share = |d: Duration| 100.0 * d.as_secs_f64() / total;
                rows.push(vec![
                    format!("{offered:.0}"),
                    format!("{:.0}", report.throughput_qps()),
                    format!("{:.2}", report.latency_percentile(0.50).as_secs_f64() * 1e3),
                    format!("{:.2}", report.latency_percentile(0.99).as_secs_f64() * 1e3),
                    format!("{:.1}", report.mean_batch_size()),
                    format!("{:.0}%", report.queue.occupancy() * 100.0),
                    format!(
                        "{:.0}/{:.0}/{:.0}%",
                        share(stages.queue_wait),
                        share(stages.dma),
                        share(stages.device),
                    ),
                    format!("{rejected}"),
                ]);
            }
            (rows, best_qps, best_p99)
        };
        let mut tables = Vec::new();
        for (leg, wall) in legs.iter().zip(&mut walls) {
            let start = Instant::now();
            tables.push(sweep(leg));
            *wall += start.elapsed();
        }
        let (rows, best_qps, best_p99) = tables.pop().expect("at least one leg");
        for (other, ..) in &tables {
            assert_eq!(
                other, &rows,
                "fast-forward changed the simulated results on {n_shards} shard(s)"
            );
        }
        print_table(
            &[
                "offered QPS",
                "sustained QPS",
                "p50 (ms)",
                "p99 (ms)",
                "batch",
                "busy",
                "wait/dma/dev",
                "rejected",
            ],
            &rows,
        );
        println!();
        println!(
            "Per-query service floor {:.2} ms (full batch, amortized, per shard) \
             -> capacity ~{:.0} QPS.",
            per_query_s * 1e3,
            capacity_qps
        );
        saturation.push((n_shards, best_qps, best_p99));
    }

    println!();
    println!("Below the knee, latency is the batch window plus one service time;");
    println!("past it the open-loop backlog stretches p99 while QPS saturates.");
    if saturation.len() > 1 {
        section("saturation QPS vs. shard count (equal corpus size)");
        for &(n, qps, p99) in &saturation {
            println!(
                "  {n} shard(s): saturation {qps:.0} QPS, p99 {:.2} ms at the knee",
                p99.as_secs_f64() * 1e3
            );
        }
        let (_, base, _) = saturation[0];
        let (n, top, _) = saturation[saturation.len() - 1];
        println!(
            "Sharding {n}x scales saturation {:.2}x: each shard streams 1/{n} of the",
            top / base.max(f64::MIN_POSITIVE)
        );
        println!("embeddings, so the movement-bound service floor drops with the shard size.");
    }

    if cfg.smoke {
        let [off, on] = [walls[0].as_secs_f64(), walls[1].as_secs_f64()];
        let &(_, best_qps, best_p99) = saturation.last().expect("at least one sweep ran");
        let json = format!(
            "{{\n  \"bench\": \"serve_qps\",\n  \"mode\": \"smoke\",\n  \"seed\": {},\n  \
             \"scale\": {},\n  \"shards\": {},\n  \
             \"queries_per_point\": {},\n  \"offered_fracs\": {:?},\n  \
             \"wall_seconds_fast_forward_off\": {off:.3},\n  \
             \"wall_seconds_fast_forward_on\": {on:.3},\n  \
             \"sustained_qps\": {:.1},\n  \"p99_ms\": {:.3}\n}}\n",
            cfg.seed,
            cfg.scale,
            cfg.shards,
            queries_per_point,
            offered_fracs,
            best_qps,
            best_p99.as_secs_f64() * 1e3,
        );
        std::fs::write("BENCH_serve_qps.json", &json).expect("write BENCH_serve_qps.json");
        println!();
        println!(
            "Smoke summary written to BENCH_serve_qps.json: identical simulated \
             results, wall {off:.3} s with fast-forward off, {on:.3} s on."
        );
    }
}

fn sim() -> SimConfig {
    SimConfig::default()
        .with_l4_bytes(1 << 20)
        .with_exec_mode(ExecMode::TimingOnly)
        .with_fast_forward(true)
}

fn probe_device() -> apu_sim::ApuDevice {
    apu_sim::ApuDevice::try_new(sim()).expect("default config is valid")
}

fn query(i: usize) -> Vec<i16> {
    vec![(i as i16 % 7) - 3; EMBED_DIM]
}
