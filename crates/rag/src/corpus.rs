//! Synthetic corpus and embedding store.
//!
//! The paper chunks each corpus into 16,384-token segments and embeds
//! every chunk: 10 GB → 163 K chunks (120 MB of embeddings), 50 GB →
//! 819 K (600 MB), 200 GB → 3.3 M (2.4 GB). The retrieval kernel's cost
//! depends only on (#chunks × dimension), so the store generates
//! deterministic pseudo-embeddings instead of embedding real text, and
//! only materializes them at functional (small) scales.
//!
//! Embedding values are quantized to −6..=6 so a 384-dimension dot
//! product (≤ 13,824) fits a 16-bit device lane exactly.

use apu_sim::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Embedding dimensionality (the paper's 120 MB / 163 K chunks ≈ 2-byte
/// 384-dim vectors).
pub const EMBED_DIM: usize = 384;
/// Tokens per corpus chunk.
pub const CHUNK_TOKENS: usize = 16_384;
/// Quantized embedding magnitude bound.
pub const EMBED_MAX: i16 = 6;

/// Rejects values outside ±[`EMBED_MAX`], the band that keeps every
/// inner product inside a 16-bit lane. A max-reduction rather than an
/// early-exit scan, so the check over a whole store vectorizes.
pub(crate) fn check_band(values: &[i16]) -> Result<()> {
    let peak = values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    if peak > EMBED_MAX.unsigned_abs() {
        return Err(Error::InvalidArg(format!(
            "embedding values outside the ±{EMBED_MAX} band"
        )));
    }
    Ok(())
}

/// A corpus size point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Nominal corpus size in bytes (the paper's 10/50/200 GB axis).
    pub corpus_bytes: u64,
    /// Number of chunks.
    pub chunks: usize,
}

impl CorpusSpec {
    /// Derives the chunk count from a corpus size using the paper's
    /// ratio (163 K chunks per 10 GB).
    pub fn from_corpus_bytes(bytes: u64) -> Self {
        let chunks = ((bytes as f64) * 163_000.0 / 10e9).round() as usize;
        CorpusSpec {
            corpus_bytes: bytes,
            chunks: chunks.max(1),
        }
    }

    /// The paper's three evaluation points.
    pub fn paper_points() -> [CorpusSpec; 3] {
        [
            CorpusSpec::from_corpus_bytes(10_000_000_000),
            CorpusSpec::from_corpus_bytes(50_000_000_000),
            CorpusSpec::from_corpus_bytes(200_000_000_000),
        ]
    }

    /// Embedding bytes (chunks × dim × 2).
    pub fn embedding_bytes(&self) -> u64 {
        self.chunks as u64 * EMBED_DIM as u64 * 2
    }

    /// Human-readable label ("10 GB").
    pub fn label(&self) -> String {
        format!("{:.0} GB", self.corpus_bytes as f64 / 1e9)
    }
}

/// Deterministic embedding store.
///
/// Chunk embeddings derive from the seed; `materialized` stores are
/// backed by real vectors (functional runs and tests), size-only stores
/// carry just the spec (timing-only paper-scale runs).
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    spec: CorpusSpec,
    seed: u64,
    epoch: u64,
    data: Option<Vec<i16>>, // chunk-major [chunks × EMBED_DIM]
}

impl EmbeddingStore {
    /// Creates a materialized store (generates `chunks × dim` values).
    pub fn materialized(spec: CorpusSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..spec.chunks * EMBED_DIM)
            .map(|_| rng.gen_range(-EMBED_MAX..=EMBED_MAX))
            .collect();
        EmbeddingStore {
            spec,
            seed,
            epoch: 0,
            data: Some(data),
        }
    }

    /// Creates a size-only store for timing-only runs.
    pub fn size_only(spec: CorpusSpec, seed: u64) -> Self {
        EmbeddingStore {
            spec,
            seed,
            epoch: 0,
            data: None,
        }
    }

    /// Wraps explicit chunk-major embeddings (`chunks × EMBED_DIM`) as a
    /// materialized store — e.g. a reordered copy of another store, or
    /// k-means centroids used as a probe corpus (see [`crate::ivf`]).
    /// The `seed` only parameterizes [`EmbeddingStore::query`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] if `data.len()` is not a multiple of
    /// [`EMBED_DIM`] or a value lies outside ±[`EMBED_MAX`].
    pub fn from_embeddings(corpus_bytes: u64, data: Vec<i16>, seed: u64) -> Result<Self> {
        if !data.len().is_multiple_of(EMBED_DIM) {
            return Err(Error::InvalidArg(format!(
                "embedding data length {} is not a multiple of {EMBED_DIM}",
                data.len()
            )));
        }
        check_band(&data)?;
        let spec = CorpusSpec {
            corpus_bytes,
            chunks: data.len() / EMBED_DIM,
        };
        Ok(EmbeddingStore {
            spec,
            seed,
            epoch: 0,
            data: Some(data),
        })
    }

    /// The corpus spec.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The store's content epoch (0 for static stores).
    ///
    /// A mutable corpus (see [`crate::mutable`]) stamps every base,
    /// delta, and compacted segment store with a distinct epoch. The
    /// epoch is folded into the batch kernel's fast-forward memo key, so
    /// a timing replay recorded against one corpus generation can never
    /// be charged against a different one — a compaction that changes
    /// the chunk count (or merely the content) forces a fresh timed run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns the store stamped with `epoch` (builder-style).
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Whether vectors are materialized.
    pub fn is_materialized(&self) -> bool {
        self.data.is_some()
    }

    /// One chunk's embedding.
    ///
    /// # Panics
    ///
    /// Panics if the store is size-only or `chunk` is out of range.
    pub fn embedding(&self, chunk: usize) -> &[i16] {
        let data = self.data.as_ref().expect("store not materialized");
        &data[chunk * EMBED_DIM..(chunk + 1) * EMBED_DIM]
    }

    /// All embeddings, chunk-major.
    ///
    /// # Panics
    ///
    /// Panics if the store is size-only.
    pub fn raw(&self) -> &[i16] {
        self.data.as_ref().expect("store not materialized")
    }

    /// A deterministic query embedding.
    pub fn query(&self, query_id: u64) -> Vec<i16> {
        // Separate seed domain so queries never collide with chunks.
        const QUERY_DOMAIN: u64 = 0x5175_6572_795f_5365; // "Query_Se"
        let mut rng = StdRng::seed_from_u64(self.seed ^ QUERY_DOMAIN.wrapping_add(query_id));
        (0..EMBED_DIM)
            .map(|_| rng.gen_range(-EMBED_MAX..=EMBED_MAX))
            .collect()
    }

    /// Splits the corpus into `n` contiguous shards for multi-device
    /// serving (see `rag::ShardedRagServer`).
    ///
    /// Chunks are partitioned in order — shard `i` takes
    /// `chunks/n + (i < chunks%n)` chunks — so shard sizes differ by at
    /// most one and concatenating the shards in order reconstructs the
    /// corpus exactly. Each shard's store **slices this store's data**
    /// (never regenerates from the seed, which would change values);
    /// shards of a size-only store are size-only. Shard chunk ids are
    /// local (0-based); [`CorpusShard::base`] maps them back to global
    /// ids. The nominal `corpus_bytes` is split proportionally.
    ///
    /// Degenerate requests return **fewer shards rather than broken
    /// ones**: `n` is clamped to ≥ 1, and when `n > chunks` only
    /// `chunks` single-chunk shards come back (a zero-chunk corpus
    /// yields one empty shard so callers always get at least one).
    /// Every returned shard of a non-empty corpus is non-empty, so
    /// downstream per-shard kernels never see a zero-chunk store.
    pub fn shards(&self, n: usize) -> Vec<CorpusShard> {
        let chunks = self.spec.chunks;
        let n = n.max(1).min(chunks.max(1));
        let mut out = Vec::with_capacity(n);
        let mut base = 0usize;
        for i in 0..n {
            let len = chunks / n + usize::from(i < chunks % n);
            let data = self
                .data
                .as_ref()
                .map(|d| d[base * EMBED_DIM..(base + len) * EMBED_DIM].to_vec());
            let corpus_bytes = if chunks == 0 {
                0
            } else {
                self.spec.corpus_bytes * len as u64 / chunks as u64
            };
            out.push(CorpusShard {
                store: EmbeddingStore {
                    spec: CorpusSpec {
                        corpus_bytes,
                        chunks: len,
                    },
                    seed: self.seed,
                    epoch: self.epoch,
                    data,
                },
                base: base as u32,
            });
            base += len;
        }
        out
    }
}

/// One contiguous shard of a parent [`EmbeddingStore`], produced by
/// [`EmbeddingStore::shards`]: the shard's own store (with shard-local,
/// 0-based chunk ids) plus the global id of its first chunk.
#[derive(Debug, Clone)]
pub struct CorpusShard {
    /// The shard's embedding store; `store.spec().chunks` is the shard
    /// length.
    pub store: EmbeddingStore,
    /// Global chunk id of the shard's first chunk: a shard-local hit for
    /// chunk `c` refers to global chunk `base + c`.
    pub base: u32,
}

impl CorpusShard {
    /// Half-open global chunk-id range `[base, base + len)` this shard
    /// covers.
    pub fn range(&self) -> std::ops::Range<u32> {
        self.base..self.base + self.store.spec().chunks as u32
    }
}

/// A deterministic **clustered** corpus for approximate-retrieval
/// studies: `topics` well-separated centers in the embedding band, each
/// chunk drawn as its (randomly assigned) center plus small per-element
/// noise. An IVF index over such a corpus recovers the topic structure,
/// so a query aimed near one center finds its true top-k inside a
/// handful of clusters — the regime where cluster pruning trades
/// essentially no recall for a large scan reduction.
///
/// The generator also hands out *topic-conditioned queries*
/// ([`ClusteredCorpus::query_near`]): a query is its topic's center
/// plus noise, modeling the skewed, locality-heavy query streams real
/// retrieval serving sees.
#[derive(Debug, Clone)]
pub struct ClusteredCorpus {
    /// The materialized embedding store (chunk order is random across
    /// topics, so contiguous corpus shards mix topics).
    pub store: EmbeddingStore,
    centers: Vec<Vec<i16>>,
    topic_of: Vec<u16>,
    seed: u64,
}

impl ClusteredCorpus {
    /// Generates a clustered corpus: `topics` centers with coordinates
    /// in −[`EMBED_MAX`]..=[`EMBED_MAX`], and per-chunk noise uniform in
    /// `-noise..=noise` (clamped back into the band).
    pub fn new(spec: CorpusSpec, topics: usize, noise: i16, seed: u64) -> Self {
        let topics = topics.max(1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x436c_7573_7465_7253); // "ClusterS"
        let centers: Vec<Vec<i16>> = (0..topics)
            .map(|_| {
                (0..EMBED_DIM)
                    .map(|_| rng.gen_range(-EMBED_MAX..=EMBED_MAX))
                    .collect()
            })
            .collect();
        let mut topic_of = Vec::with_capacity(spec.chunks);
        let mut data = Vec::with_capacity(spec.chunks * EMBED_DIM);
        for _ in 0..spec.chunks {
            let t = rng.gen_range(0..topics);
            topic_of.push(t as u16);
            for &c in &centers[t] {
                let v = c + rng.gen_range(-noise..=noise);
                data.push(v.clamp(-EMBED_MAX, EMBED_MAX));
            }
        }
        ClusteredCorpus {
            store: EmbeddingStore {
                spec,
                seed,
                epoch: 0,
                data: Some(data),
            },
            centers,
            topic_of,
            seed,
        }
    }

    /// Number of topic centers.
    pub fn topics(&self) -> usize {
        self.centers.len()
    }

    /// The generating topic of one chunk.
    pub fn topic_of(&self, chunk: usize) -> usize {
        self.topic_of[chunk] as usize
    }

    /// A deterministic query aimed at `topic`: the topic center plus
    /// per-element noise in −2..=2, clamped to the embedding band. Its
    /// exact top-k concentrates in the chunks of that topic.
    pub fn query_near(&self, topic: usize, query_id: u64) -> Vec<i16> {
        const TOPIC_QUERY_DOMAIN: u64 = 0x546f_7069_6351_7279; // "TopicQry"
        let topic = topic % self.centers.len();
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ TOPIC_QUERY_DOMAIN.wrapping_add((topic as u64) << 32 | query_id),
        );
        self.centers[topic]
            .iter()
            .map(|&c| (c + rng.gen_range(-2..=2)).clamp(-EMBED_MAX, EMBED_MAX))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_points_match_table_sizes() {
        let pts = CorpusSpec::paper_points();
        assert_eq!(pts[0].chunks, 163_000);
        // 819K and 3.3M chunks within rounding
        assert!((810_000..=825_000).contains(&pts[1].chunks));
        assert!((3_250_000..=3_300_000).contains(&pts[2].chunks));
        // embedding sizes ≈ 120 MB / 600 MB / 2.4 GB
        assert!((115e6..130e6).contains(&(pts[0].embedding_bytes() as f64)));
        assert!((2.3e9..2.6e9).contains(&(pts[2].embedding_bytes() as f64)));
    }

    #[test]
    fn store_is_deterministic() {
        let spec = CorpusSpec {
            corpus_bytes: 0,
            chunks: 10,
        };
        let a = EmbeddingStore::materialized(spec, 1);
        let b = EmbeddingStore::materialized(spec, 1);
        assert_eq!(a.raw(), b.raw());
        assert_eq!(a.query(0), b.query(0));
        assert_ne!(a.query(0), a.query(1));
    }

    #[test]
    fn values_stay_in_band() {
        let spec = CorpusSpec {
            corpus_bytes: 0,
            chunks: 100,
        };
        let s = EmbeddingStore::materialized(spec, 2);
        assert!(s
            .raw()
            .iter()
            .all(|&v| (-EMBED_MAX..=EMBED_MAX).contains(&v)));
        // worst-case dot product fits i16
        assert!(EMBED_DIM as i32 * (EMBED_MAX as i32).pow(2) <= i16::MAX as i32);
    }

    #[test]
    fn shards_partition_the_corpus_exactly() {
        let spec = CorpusSpec {
            corpus_bytes: 1000,
            chunks: 10,
        };
        let s = EmbeddingStore::materialized(spec, 5);
        let shards = s.shards(3);
        assert_eq!(shards.len(), 3);
        // 10 = 4 + 3 + 3, contiguous bases.
        assert_eq!(
            shards
                .iter()
                .map(|sh| sh.store.spec().chunks)
                .collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        assert_eq!(
            shards.iter().map(|sh| sh.base).collect::<Vec<_>>(),
            vec![0, 4, 7]
        );
        assert_eq!(shards[1].range(), 4..7);
        // Shard data is a slice of the parent, not a regeneration.
        for sh in &shards {
            for local in 0..sh.store.spec().chunks {
                assert_eq!(
                    sh.store.embedding(local),
                    s.embedding(sh.base as usize + local)
                );
            }
            // Queries are shared across shards (same seed).
            assert_eq!(sh.store.query(9), s.query(9));
        }
        // Nominal bytes split proportionally (within integer rounding).
        let total: u64 = shards.iter().map(|sh| sh.store.spec().corpus_bytes).sum();
        assert!((997..=1000).contains(&total));
    }

    #[test]
    fn sharding_edge_cases_stay_well_formed() {
        let spec = CorpusSpec {
            corpus_bytes: 64,
            chunks: 2,
        };
        let s = EmbeddingStore::materialized(spec, 8);
        // n = 0 clamps to one shard covering everything.
        let whole = s.shards(0);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].store.spec().chunks, 2);
        assert_eq!(whole[0].store.raw(), s.raw());
        // More shards than chunks: fewer, non-empty shards come back
        // (regression: this used to produce empty trailing shards whose
        // zero-chunk stores broke per-shard kernels).
        let over = s.shards(4);
        assert_eq!(over.len(), 2);
        assert_eq!(
            over.iter()
                .map(|sh| sh.store.spec().chunks)
                .collect::<Vec<_>>(),
            vec![1, 1]
        );
        assert!(over.iter().all(|sh| !sh.range().is_empty()));
        assert_eq!(over[1].range(), 1..2);
        // Size-only parents give size-only shards.
        let dry = EmbeddingStore::size_only(CorpusSpec::from_corpus_bytes(10_000_000_000), 3);
        let dry_shards = dry.shards(4);
        assert!(dry_shards.iter().all(|sh| !sh.store.is_materialized()));
        assert_eq!(
            dry_shards
                .iter()
                .map(|sh| sh.store.spec().chunks)
                .sum::<usize>(),
            163_000
        );
    }

    #[test]
    fn zero_chunk_corpus_yields_one_empty_shard() {
        // Regression: a zero-chunk corpus must not panic and callers
        // still get a (single, empty) shard to iterate.
        let spec = CorpusSpec {
            corpus_bytes: 0,
            chunks: 0,
        };
        for s in [
            EmbeddingStore::materialized(spec, 1),
            EmbeddingStore::size_only(spec, 1),
        ] {
            for n in [0usize, 1, 5] {
                let shards = s.shards(n);
                assert_eq!(shards.len(), 1, "n={n}");
                assert_eq!(shards[0].store.spec().chunks, 0);
                assert!(shards[0].range().is_empty());
            }
        }
    }

    #[test]
    fn oversharding_still_partitions_exactly() {
        let spec = CorpusSpec {
            corpus_bytes: 300,
            chunks: 3,
        };
        let s = EmbeddingStore::materialized(spec, 9);
        let shards = s.shards(100);
        assert_eq!(shards.len(), 3);
        let mut next = 0u32;
        for sh in &shards {
            assert_eq!(sh.base, next);
            assert_eq!(sh.store.spec().chunks, 1);
            assert_eq!(sh.store.embedding(0), s.embedding(sh.base as usize));
            next = sh.range().end;
        }
        assert_eq!(next as usize, spec.chunks);
    }

    #[test]
    fn from_embeddings_wraps_data_verbatim() {
        let spec = CorpusSpec {
            corpus_bytes: 0,
            chunks: 3,
        };
        let src = EmbeddingStore::materialized(spec, 4);
        let wrapped = EmbeddingStore::from_embeddings(64, src.raw().to_vec(), 4).unwrap();
        assert_eq!(wrapped.spec().chunks, 3);
        assert_eq!(wrapped.spec().corpus_bytes, 64);
        assert!(wrapped.is_materialized());
        assert_eq!(wrapped.raw(), src.raw());
        assert_eq!(wrapped.query(7), src.query(7));
    }

    #[test]
    fn from_embeddings_rejects_ragged_data() {
        let err = EmbeddingStore::from_embeddings(0, vec![1i16; EMBED_DIM + 1], 0).unwrap_err();
        assert!(matches!(err, Error::InvalidArg(ref m) if m.contains("multiple")));
    }

    #[test]
    fn from_embeddings_rejects_out_of_band_values() {
        for bad in [EMBED_MAX + 1, -EMBED_MAX - 1, i16::MAX, i16::MIN] {
            let mut data = vec![0i16; 2 * EMBED_DIM];
            data[EMBED_DIM + 7] = bad;
            let err = EmbeddingStore::from_embeddings(0, data, 0).unwrap_err();
            assert!(
                matches!(err, Error::InvalidArg(ref m) if m.contains("band")),
                "{bad}: {err}"
            );
        }
        let edges = [vec![EMBED_MAX; EMBED_DIM], vec![-EMBED_MAX; EMBED_DIM]].concat();
        assert!(EmbeddingStore::from_embeddings(0, edges, 0).is_ok());
    }

    #[test]
    fn clustered_corpus_is_deterministic_and_in_band() {
        let spec = CorpusSpec {
            corpus_bytes: 0,
            chunks: 200,
        };
        let a = ClusteredCorpus::new(spec, 8, 1, 5);
        let b = ClusteredCorpus::new(spec, 8, 1, 5);
        assert_eq!(a.store.raw(), b.store.raw());
        assert_eq!(a.query_near(3, 0), b.query_near(3, 0));
        assert_ne!(a.query_near(3, 0), a.query_near(3, 1));
        assert_eq!(a.topics(), 8);
        assert!(a
            .store
            .raw()
            .iter()
            .all(|&v| (-EMBED_MAX..=EMBED_MAX).contains(&v)));
        // Chunks sit near their generating center: a chunk's dot with
        // its own topic's query beats a random other topic's query for
        // the overwhelming majority of chunks.
        let dot = |x: &[i16], y: &[i16]| -> i64 {
            x.iter().zip(y).map(|(&a, &b)| a as i64 * b as i64).sum()
        };
        let mut closer = 0usize;
        for c in 0..spec.chunks {
            let own = a.query_near(a.topic_of(c), 1);
            let other = a.query_near((a.topic_of(c) + 1) % 8, 1);
            if dot(a.store.embedding(c), &own) > dot(a.store.embedding(c), &other) {
                closer += 1;
            }
        }
        assert!(closer >= spec.chunks * 95 / 100, "only {closer} close");
    }

    #[test]
    fn size_only_reports_spec() {
        let spec = CorpusSpec::from_corpus_bytes(10_000_000_000);
        let s = EmbeddingStore::size_only(spec, 3);
        assert!(!s.is_materialized());
        assert_eq!(s.spec().chunks, 163_000);
    }
}
