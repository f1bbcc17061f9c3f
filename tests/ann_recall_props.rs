//! Recall@k differential harness for the on-device IVF index
//! ([`rag::IvfIndex`], paper §5.3 extended with approximate retrieval).
//!
//! IVF trades scan work for recall by probing only `nprobe` of `nlist`
//! clusters, but every candidate it does score is scored **exactly** —
//! the same biased-dot kernel as the flat scan. That yields three
//! checkable properties plus a determinism guarantee:
//!
//! * **exactness of the candidates** (many cases): every IVF hit
//!   carries the true inner-product score of its chunk, hits obey the
//!   global tie-break (score descending, chunk ascending), and
//!   rank-for-rank an IVF list never beats the flat top-k;
//! * **full probe ≡ flat** (device differential): with `nprobe ==
//!   nlist` the pruning is vacuous, so a sharded IVF serve must return,
//!   for every query, hits element-identical to the flat serve — ids
//!   AND scores — across shard counts 1..=4;
//! * **recall floor** (seeded): on a clustered corpus with
//!   topic-conditioned queries, recall@10 at the `serve_ann` bench
//!   defaults ([`DEFAULT_NLIST`]/[`DEFAULT_NPROBE`]) stays ≥ 0.9;
//! * **determinism**: the same seed yields byte-identical serve reports
//!   (hits and Prometheus text) run-to-run, in both simulation modes
//!   and across the shard/replica/fast-forward axes.
//!
//! The determinism and end-to-end cases loop in-process over the
//! composed points of `common::CI_POINTS`, whose index axis serves the
//! end-to-end stream flat or through IVF, plus each case's own
//! functional default point.

mod common;

use std::collections::HashSet;
use std::time::Duration;

use apu_sim::{ApuDevice, ExecMode, SimConfig};
use hbm_sim::{DramSpec, MemorySystem};
use proptest::prelude::*;
use rag::cpu::{cpu_retrieve, dot};
use rag::{
    ClusteredCorpus, CorpusSpec, EmbeddingStore, Hit, IndexMode, IvfIndex, QuerySpec, ServeConfig,
    ShardedRagServer, DEFAULT_NLIST, DEFAULT_NPROBE, MAX_BATCH,
};

fn store(chunks: usize, seed: u64) -> EmbeddingStore {
    EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks,
        },
        seed,
    )
}

fn sim(mode: ExecMode) -> SimConfig {
    SimConfig::default()
        .with_exec_mode(mode)
        .with_l4_bytes(8 << 20)
}

fn functional_device() -> (ApuDevice, MemorySystem) {
    (
        ApuDevice::new(sim(ExecMode::Functional)),
        MemorySystem::new(DramSpec::hbm2e_16gb()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Candidate exactness: for any corpus, index shape, and probe
    /// width, every IVF hit scores its chunk exactly (bit-identical to
    /// the CPU dot product), the list obeys the global tie-break, and
    /// no rank of the IVF list beats the same rank of the flat top-k —
    /// pruning can only lose candidates, never invent or inflate them.
    #[test]
    fn ivf_hits_are_exact_and_never_beat_flat(
        chunks in 64usize..600,
        seed in 0u64..500,
        nlist in 2usize..=16,
        nprobe in 1usize..=4,
        k in 1usize..=8,
        nq in 1usize..=3,
    ) {
        let st = store(chunks, seed);
        let index = IvfIndex::build(&st, nlist);
        let queries: Vec<Vec<i16>> = (0..nq as u64).map(|i| st.query(i)).collect();
        let (mut dev, mut hbm) = functional_device();
        let out = index
            .search_batch(&mut dev, &mut hbm, &queries, k, nprobe)
            .expect("ivf search");
        prop_assert_eq!(out.hits.len(), nq);
        for (q, hits) in out.hits.iter().enumerate() {
            let (flat, _) = cpu_retrieve(&st, &queries[q], k, 2);
            prop_assert!(hits.len() <= flat.len());
            for h in hits {
                prop_assert_eq!(
                    h.score,
                    dot(&queries[q], st.embedding(h.chunk as usize)),
                    "chunk {} carries a non-exact score", h.chunk
                );
            }
            for w in hits.windows(2) {
                prop_assert!(
                    w[0].score > w[1].score
                        || (w[0].score == w[1].score && w[0].chunk < w[1].chunk),
                    "tie-break violated: {:?} before {:?}", w[0], w[1]
                );
            }
            for (rank, h) in hits.iter().enumerate() {
                prop_assert!(
                    h.score <= flat[rank].score,
                    "rank {rank}: ivf {} beats flat {}", h.score, flat[rank].score
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full-probe differential: with `nprobe == nlist` every cluster is
    /// rescored, so the sharded IVF serve — per-shard index, fan-out,
    /// exact global merge — must return hits element-identical to the
    /// flat serve for every query, across shard counts 1..=4.
    #[test]
    fn full_probe_sharded_ivf_equals_flat_serving(
        chunks in 64usize..=512,
        seed in 0u64..200,
        k in 1usize..=8,
        shards in 1usize..=4,
        nlist in 2usize..=8,
        nq in 1usize..=3,
    ) {
        let st = store(chunks, seed);
        let queries: Vec<Vec<i16>> = (0..nq as u64).map(|i| st.query(i)).collect();
        let serve = |index: IndexMode| {
            let mut server = ShardedRagServer::new(
                &st,
                shards,
                sim(ExecMode::Functional),
                ServeConfig {
                    k,
                    index,
                    ..ServeConfig::default()
                },
            )
            .expect("cluster construction");
            for (i, q) in queries.iter().enumerate() {
                server
                    .submit(Duration::from_micros(10 * i as u64), q.clone())
                    .expect("submit");
            }
            server.drain().expect("drain")
        };
        let flat = serve(IndexMode::Flat);
        let ivf = serve(IndexMode::Ivf { nlist, nprobe: nlist });
        prop_assert_eq!(ivf.completions.len(), nq);
        prop_assert_eq!(ivf.served(), nq);
        prop_assert!(ivf.ivf.searches >= 1, "no IVF dispatch recorded");
        prop_assert_eq!(ivf.ivf.queries as usize, nq * shards.min(chunks));
        for (f, i) in flat.completions.iter().zip(&ivf.completions) {
            prop_assert_eq!(f.ticket, i.ticket);
            prop_assert_eq!(
                f.hits().expect("flat served"),
                i.hits().expect("ivf served"),
                "full probe diverged: chunks={} shards={} nlist={} k={}",
                chunks, shards, nlist, k
            );
        }
    }
}

/// Seeded recall floor at the `serve_ann` bench defaults: on a
/// clustered corpus with topic-conditioned queries, probing
/// [`DEFAULT_NPROBE`] of [`DEFAULT_NLIST`] clusters keeps mean
/// recall@10 ≥ 0.9 against the exact CPU scan. Everything is seeded —
/// the corpus, the k-means training, the query stream — so this is a
/// regression gate, not a statistical test.
#[test]
fn recall_at_10_meets_the_bench_floor_on_a_clustered_corpus() {
    let corpus = ClusteredCorpus::new(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 8192,
        },
        64,
        1,
        7,
    );
    let index = IvfIndex::build(&corpus.store, DEFAULT_NLIST);
    let k = 10;
    let queries: Vec<Vec<i16>> = (0..24u64)
        .map(|i| corpus.query_near(i as usize % corpus.topics(), i))
        .collect();

    let (mut dev, mut hbm) = functional_device();
    let mut hits: Vec<Vec<Hit>> = Vec::new();
    for batch in queries.chunks(MAX_BATCH) {
        let out = index
            .search_batch(&mut dev, &mut hbm, batch, k, DEFAULT_NPROBE)
            .expect("ivf search");
        hits.extend(out.hits);
    }

    let mut recall_sum = 0.0f64;
    for (i, got) in hits.iter().enumerate() {
        let (truth, _) = cpu_retrieve(&corpus.store, &queries[i], k, 4);
        let truth_ids: HashSet<u32> = truth.iter().map(|h| h.chunk).collect();
        let found = got.iter().filter(|h| truth_ids.contains(&h.chunk)).count();
        recall_sum += found as f64 / k as f64;
    }
    let recall = recall_sum / hits.len() as f64;
    assert!(
        recall >= 0.9,
        "recall@10 = {recall:.3} at nlist={DEFAULT_NLIST} nprobe={DEFAULT_NPROBE}"
    );
}

/// FNV-1a (64-bit) over a byte string: the cross-commit pin for a
/// trained partition.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a of the pinned corpus's embeddings (little-endian `i16`s).
const PINNED_CORPUS_FNV: u64 = 0x7540_7caa_8360_fe8a;

/// FNV-1a of the trained partition: the centroid rows (little-endian
/// `i16`s), then per cluster its length and its original chunk ids
/// (little-endian `u32`s). Recorded before the trainer moved from
/// `phoenix::kmeans` onto the store's point-major rows.
const IVF_PARTITION_FNV: u64 = 0xdf51_36a8_844c_d5ef;

/// Cross-commit pin of the IVF trainer: the same clustered corpus must
/// train the same centroids and the same partition, bit for bit, as the
/// recorded one. A change that only reorders the integer arithmetic
/// passes; one that moves a single chunk or centroid value fails. The
/// corpus hash is checked first, so a change to the corpus generator
/// (or to the `rand` it draws from) is told apart from a change to the
/// trainer.
#[test]
fn ivf_partition_is_pinned() {
    let corpus = ClusteredCorpus::new(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 8192,
        },
        64,
        1,
        7,
    );
    let raw: Vec<u8> = corpus
        .store
        .raw()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    assert_eq!(
        fnv1a64(&raw),
        PINNED_CORPUS_FNV,
        "the corpus generator changed, not the trainer"
    );

    let index = IvfIndex::build(&corpus.store, DEFAULT_NLIST);
    let mut bytes: Vec<u8> = index
        .centroid_store()
        .raw()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    for c in 0..index.nlist() {
        let ids = index.cluster_ids(c);
        bytes.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        bytes.extend(ids.iter().flat_map(|id| id.to_le_bytes()));
    }
    let hash = fnv1a64(&bytes);
    assert_eq!(
        hash, IVF_PARTITION_FNV,
        "IVF partition hash {hash:#018x} drifted from the recorded partition"
    );
}

/// Same-seed determinism on every composed point: two identical IVF
/// serves — same corpus seed, same stream, same shard/replica/mode/
/// fast-forward point — must produce byte-identical results: per-query
/// hit lists and the full Prometheus rendering (which folds in
/// latencies, batch stats, and the `apu_ivf_*` counters). Timing-only
/// serves compare the data-independent fallback probes the same way.
#[test]
fn same_seed_ivf_serves_are_byte_identical() {
    let run = |point: common::Point| {
        let corpus = ClusteredCorpus::new(
            CorpusSpec {
                corpus_bytes: 0,
                chunks: 2048,
            },
            16,
            1,
            42,
        );
        let mut server = ShardedRagServer::new(
            &corpus.store,
            point.shards,
            point.sim(),
            ServeConfig {
                k: 10,
                replicas: point.replicas,
                index: IndexMode::Ivf {
                    nlist: 16,
                    nprobe: 2,
                },
                ..ServeConfig::default()
            },
        )
        .expect("cluster construction");
        for i in 0..12u64 {
            server
                .submit_query(QuerySpec::new(
                    Duration::from_micros(20 * i),
                    corpus.query_near(i as usize % corpus.topics(), i),
                ))
                .expect("submit");
        }
        let report = server.drain().expect("drain");
        let hits: Vec<Option<Vec<Hit>>> = report
            .completions
            .iter()
            .map(|c| c.hits().map(<[Hit]>::to_vec))
            .collect();
        (hits, report.ivf, report.prometheus_text())
    };
    for point in common::points_with(common::Point::local(2, 1)) {
        let first = run(point);
        let second = run(point);
        assert_eq!(first.0, second.0, "{point}: hit lists diverged run-to-run");
        assert_eq!(first.1, second.1, "{point}: ivf stats diverged run-to-run");
        assert_eq!(
            first.2, second.2,
            "{point}: prometheus text diverged run-to-run"
        );
    }
}

/// End-to-end check on every composed point: the point's index axis
/// selects the serving default (flat or IVF), composing with its mode,
/// shard, replica and fast-forward axes. The stream must be fully
/// served in either mode; under functional execution flat answers are
/// checked against the exact CPU scan and IVF answers for candidate
/// exactness, and an IVF serve must surface its probe counters in the
/// report and the Prometheus rendering.
#[test]
fn ci_index_axis_serves_the_full_stream() {
    let corpus = ClusteredCorpus::new(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 4096,
        },
        32,
        1,
        42,
    );
    let queries: Vec<Vec<i16>> = (0..12u64)
        .map(|i| corpus.query_near(i as usize % corpus.topics(), i))
        .collect();
    for point in common::points_with(common::Point::local(3, 1)) {
        serve_the_full_stream(&corpus, &queries, point);
    }
}

fn serve_the_full_stream(corpus: &ClusteredCorpus, queries: &[Vec<i16>], point: common::Point) {
    let k = 10;
    let mut server = ShardedRagServer::new(
        &corpus.store,
        point.shards,
        point.sim(),
        ServeConfig {
            k,
            replicas: point.replicas,
            index: point.index,
            ..ServeConfig::default()
        },
    )
    .expect("cluster construction");
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(25 * i as u64), q.clone())
            .expect("submit");
    }
    let report = server.drain().expect("drain");

    assert_eq!(report.completions.len(), queries.len(), "{point}");
    assert_eq!(report.served(), queries.len(), "{point}");
    assert_eq!(report.degraded(), 0, "{point}");
    if point.index.is_ivf() {
        assert!(
            report.ivf.searches >= 1,
            "{point}: no IVF dispatch recorded"
        );
        assert_eq!(
            report.ivf.queries as usize,
            queries.len() * point.shards,
            "{point}"
        );
        assert!(
            report.prometheus_text().contains("apu_ivf_searches_total"),
            "{point}"
        );
    } else {
        assert_eq!(report.ivf, rag::IvfStats::default(), "{point}");
    }
    if point.mode.is_functional() {
        for done in &report.completions {
            let q = &queries[done.ticket.id() as usize];
            let hits = done.hits().expect("served");
            match point.index {
                IndexMode::Flat => {
                    let (expected, _) = cpu_retrieve(&corpus.store, q, k, 2);
                    assert_eq!(hits, &expected[..], "{point}");
                }
                IndexMode::Ivf { .. } => {
                    for h in hits {
                        assert_eq!(
                            h.score,
                            dot(q, corpus.store.embedding(h.chunk as usize)),
                            "{point}"
                        );
                    }
                }
            }
        }
    }
}
