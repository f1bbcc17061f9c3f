//! Differential / property tests for sharded retrieval: for any corpus,
//! query set, `k`, and shard count, the merged per-shard top-k must be
//! element-identical — ids AND scores, with the global tie-break (score
//! descending, chunk ascending) — to the single-device top-k over the
//! whole corpus.
//!
//! Two layers of evidence:
//!
//! * a cheap pure-CPU property (many cases): shard [`cpu_retrieve`]
//!   results, globalize the chunk ids, merge with [`top_k`] — equals
//!   [`cpu_retrieve`] on the unsharded store;
//! * a device differential (fewer cases, functional simulation): a full
//!   [`rag::ShardedRagServer`] drain — fan-out, per-shard continuous
//!   batching, scatter-gather merge — equals the synchronous
//!   single-device [`retrieve_batch`] on the whole corpus.
//!
//! A third layer covers replication: the **kill-a-replica**
//! differential. With every shard held by a replica group, killing any
//! single replica must leave every query's top-k element-identical to
//! the flat single-device scan — transparent failover, zero degraded
//! answers. Only when a *whole* replica set is down may the answer
//! degrade to the surviving shards.
//!
//! The end-to-end case loops in-process over the composed points of
//! `common::CI_POINTS` (mode × shards × replicas × fast-forward) plus a
//! functional 3-shard cluster; the properties sweep shard counts 1..=8
//! on their own.

mod common;

use std::time::Duration;

use apu_sim::{ApuDevice, ExecMode, FaultPlan, SimConfig};
use hbm_sim::{DramSpec, MemorySystem};
use proptest::prelude::*;
use rag::cpu::{cpu_retrieve, top_k};
use rag::{retrieve_batch, CorpusSpec, EmbeddingStore, Hit, ServeConfig, ShardedRagServer};

fn store(chunks: usize, seed: u64) -> EmbeddingStore {
    EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks,
        },
        seed,
    )
}

/// Merges per-shard CPU retrievals into a global top-k: retrieve on each
/// shard's local store, lift hits to global chunk ids, and re-rank.
fn sharded_cpu_top_k(st: &EmbeddingStore, query: &[i16], k: usize, shards: usize) -> Vec<Hit> {
    let mut merged = Vec::new();
    for shard in st.shards(shards) {
        if shard.store.spec().chunks == 0 {
            continue;
        }
        let (hits, _) = cpu_retrieve(&shard.store, query, k, 2);
        merged.extend(hits.into_iter().map(|h| Hit {
            chunk: h.chunk + shard.base,
            score: h.score,
        }));
    }
    top_k(merged, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pure-CPU merge property, cheap enough for a wide sweep: for any
    /// corpus, seed, k 1..=8, and shard count 1..=8 (including counts
    /// that leave trailing shards empty), the sharded merge is
    /// element-identical to the unsharded scan.
    #[test]
    fn sharded_cpu_merge_equals_global_top_k(
        chunks in 1usize..600,
        seed in 0u64..1_000,
        k in 1usize..=8,
        shards in 1usize..=8,
        query_id in 0u64..100,
    ) {
        let st = store(chunks, seed);
        let query = st.query(query_id);
        let (expected, _) = cpu_retrieve(&st, &query, k, 2);
        let merged = sharded_cpu_top_k(&st, &query, k, shards);
        prop_assert_eq!(merged, expected, "chunks={} shards={} k={}", chunks, shards, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Device differential: a full sharded serve — per-shard devices,
    /// continuous batching, scatter-gather merge — returns exactly the
    /// hits of the synchronous single-device batch kernel on the whole
    /// corpus, for every query, with ids and scores intact.
    #[test]
    fn sharded_server_matches_single_device_retrieval(
        chunks in 64usize..=1024,
        k in 1usize..=8,
        shards in 1usize..=8,
        nq in 1usize..=3,
    ) {
        let st = store(chunks, 77);
        let queries: Vec<Vec<i16>> = (0..nq as u64).map(|i| st.query(i)).collect();

        // Synchronous single-device reference on the unsharded corpus.
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_exec_mode(ExecMode::Functional)
                .with_l4_bytes(8 << 20),
        );
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let reference = retrieve_batch(&mut dev, &mut hbm, &st, &queries, k)
            .expect("reference retrieval");

        let mut server = ShardedRagServer::new(
            &st,
            shards,
            SimConfig::default()
                .with_exec_mode(ExecMode::Functional)
                .with_l4_bytes(8 << 20),
            ServeConfig {
                k,
                ..ServeConfig::default()
            },
        )
        .expect("cluster construction");
        for (i, q) in queries.iter().enumerate() {
            server
                .submit(Duration::from_micros(10 * i as u64), q.clone())
                .expect("submit");
        }
        let report = server.drain().expect("drain");

        prop_assert_eq!(report.completions.len(), nq);
        prop_assert_eq!(report.served(), nq);
        prop_assert_eq!(report.degraded(), 0);
        for done in &report.completions {
            prop_assert_eq!(
                done.hits().expect("served"),
                &reference.hits[done.ticket.id() as usize][..],
                "query {} diverged: chunks={} shards={} k={}",
                done.ticket.id(), chunks, shards, k
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Kill-a-replica differential: for any corpus, k, shard count, and
    /// replication factor ≥ 2, kill one replica of one shard (every task
    /// on it faults) and the replicated serve must still return, for
    /// every query, exactly the hits of the synchronous single-device
    /// scan — ids and scores intact, nothing degraded — while the report
    /// shows real failovers happened.
    #[test]
    fn killing_one_replica_keeps_every_query_exact(
        chunks in 64usize..=400,
        k in 1usize..=6,
        shards in 1usize..=3,
        replicas in 2usize..=3,
        victim in 0usize..64,
    ) {
        let st = store(chunks, 91);
        let nq = 3usize; // ≥ replicas, so the victim serves at least one primary
        let queries: Vec<Vec<i16>> = (0..nq as u64).map(|i| st.query(i)).collect();

        // Synchronous single-device reference on the unsharded corpus.
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_exec_mode(ExecMode::Functional)
                .with_l4_bytes(8 << 20),
        );
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let reference = retrieve_batch(&mut dev, &mut hbm, &st, &queries, k)
            .expect("reference retrieval");

        let mut server = ShardedRagServer::new(
            &st,
            shards,
            SimConfig::default()
                .with_exec_mode(ExecMode::Functional)
                .with_l4_bytes(8 << 20),
            ServeConfig {
                k,
                replicas,
                ..ServeConfig::default()
            },
        )
        .expect("cluster construction");

        // Kill one arbitrary replica: every task it receives faults.
        let (dead_shard, dead_replica) = (victim % shards, (victim / shards) % replicas);
        server.inject_faults_replica(
            dead_shard,
            dead_replica,
            FaultPlan::new(7).fail_every_kth_task(1),
        );

        for (i, q) in queries.iter().enumerate() {
            server
                .submit(Duration::from_micros(10 * i as u64), q.clone())
                .expect("submit");
        }
        let report = server.drain().expect("drain");

        prop_assert_eq!(report.completions.len(), nq);
        prop_assert_eq!(report.served(), nq, "fault must be transparent");
        prop_assert_eq!(report.degraded(), 0, "a healthy replica remained");
        prop_assert!(
            report.replica.failovers >= 1,
            "the dead replica must have been hit at least once \
             (shards={} replicas={} victim=({},{}))",
            shards, replicas, dead_shard, dead_replica
        );
        prop_assert_eq!(report.shards.len(), shards * replicas);
        for done in &report.completions {
            prop_assert!(!done.is_degraded());
            prop_assert_eq!((done.shards_ok, done.shards_total), (shards, shards));
            prop_assert_eq!(done.stages.total(), done.latency());
            prop_assert_eq!(
                done.hits().expect("served"),
                &reference.hits[done.ticket.id() as usize][..],
                "query {} diverged: chunks={} shards={} replicas={} k={} victim=({},{})",
                done.ticket.id(), chunks, shards, replicas, k, dead_shard, dead_replica
            );
        }
    }
}

/// Degradation is reserved for total loss: killing *every* replica of
/// one shard degrades the answers to the surviving shards (still
/// served), while killing all-but-one leaves them exact.
#[test]
fn only_a_whole_dead_replica_set_degrades_answers() {
    let st = store(300, 13);
    let queries: Vec<Vec<i16>> = (0..3u64).map(|i| st.query(i)).collect();
    let config = |replicas| ServeConfig {
        k: 4,
        replicas,
        ..ServeConfig::default()
    };
    let sim = || {
        SimConfig::default()
            .with_exec_mode(ExecMode::Functional)
            .with_l4_bytes(8 << 20)
    };

    // All but one replica of shard 1 dead: exact, nothing degraded.
    let mut server = ShardedRagServer::new(&st, 2, sim(), config(3)).expect("cluster");
    for r in 0..2 {
        server.inject_faults_replica(1, r, FaultPlan::new(5).fail_every_kth_task(1));
    }
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(10 * i as u64), q.clone())
            .expect("submit");
    }
    let report = server.drain().expect("drain");
    assert_eq!(report.served(), queries.len());
    assert_eq!(report.degraded(), 0);

    // The whole replica set of shard 1 dead: served but degraded.
    let mut server = ShardedRagServer::new(&st, 2, sim(), config(2)).expect("cluster");
    for r in 0..2 {
        server.inject_faults_replica(1, r, FaultPlan::new(5).fail_every_kth_task(1));
    }
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(10 * i as u64), q.clone())
            .expect("submit");
    }
    let report = server.drain().expect("drain");
    assert_eq!(report.served(), queries.len());
    assert_eq!(report.degraded(), queries.len());
    for done in &report.completions {
        assert!(done.is_degraded());
        assert_eq!((done.shards_ok, done.shards_total), (1, 2));
    }
}

/// End-to-end check on every composed point: the cluster width, the
/// replication factor, the simulation mode and fast-forward come from
/// the point. With replication a replica of shard 0 is killed outright,
/// so the stream must be served *through* failover.
/// Scheduling/accounting assertions hold in both modes; hit equality is
/// gated on functional execution.
#[test]
fn ci_shard_axis_serves_the_full_stream() {
    let st = store(6_000, 42);
    let queries: Vec<Vec<i16>> = (0..12).map(|i| st.query(i)).collect();
    for point in common::points_with(common::Point::local(3, 1)) {
        serve_the_full_stream(&st, &queries, point);
    }
}

fn serve_the_full_stream(st: &EmbeddingStore, queries: &[Vec<i16>], point: common::Point) {
    let (shards, replicas) = (point.shards, point.replicas);
    let mut server = ShardedRagServer::new(
        st,
        shards,
        point.sim(),
        ServeConfig {
            replicas,
            ..ServeConfig::default()
        },
    )
    .expect("cluster construction");
    if replicas >= 2 {
        // Kill one replica of shard 0; failover must keep the stream
        // exact and non-degraded.
        server.inject_faults_replica(0, 0, FaultPlan::new(3).fail_every_kth_task(1));
    }
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(25 * i as u64), q.clone())
            .expect("submit");
    }
    let report = server.drain().expect("drain");

    assert_eq!(report.completions.len(), queries.len(), "{point}");
    assert_eq!(report.served(), queries.len(), "{point}");
    assert_eq!(report.degraded(), 0, "{point}");
    assert_eq!(report.shards.len(), shards * replicas, "{point}");
    assert_eq!(report.replica.per_shard, replicas, "{point}");
    assert_eq!(report.replica.groups, shards, "{point}");
    // Each replica group serves the whole stream between its members
    // (the dead replica's failed attempts re-land on its peers).
    for group in 0..shards {
        let served: u64 = (0..replicas)
            .map(|r| report.shards[group * replicas + r].completed)
            .sum();
        assert!(
            served as usize >= queries.len(),
            "{point}: group {group} completed only {served} of {}",
            queries.len()
        );
    }
    if replicas >= 2 {
        assert!(
            report.replica.failovers >= 1,
            "{point}: the dead replica was never hit"
        );
        assert!(report.replica.failover_served >= 1, "{point}");
    }
    for done in &report.completions {
        assert_eq!(
            (done.shards_ok, done.shards_total),
            (shards, shards),
            "{point}"
        );
        assert_eq!(done.stages.total(), done.latency(), "{point}");
    }
    if point.mode.is_functional() {
        for done in &report.completions {
            let expected = sharded_cpu_top_k(st, &queries[done.ticket.id() as usize], 5, 1);
            assert_eq!(done.hits().expect("served"), &expected[..], "{point}");
        }
    }
}
