//! Scheduler-invariant tests for the continuous-batching dispatcher.
//!
//! Continuous batching changes *when* work runs, not *what* runs or in
//! which order peers observe it. These tests pin the four invariants the
//! dispatcher must preserve no matter how batches form:
//!
//! 1. FIFO within a priority class survives coalescing;
//! 2. a batch never mixes priority classes or [`BatchKey`]s;
//! 3. batched retrieval results are bitwise-identical to the per-query
//!    synchronous path;
//! 4. admission control ([`QueueFull`]) triggers at exactly
//!    `max_pending`, independent of batch formation;
//!
//! plus the headline claim: at equal (saturating) offered load the
//! batched drain sustains strictly higher simulated QPS than the same
//! stream served one query per dispatch, with identical hits.
//!
//! [`QueueFull`]: apu_sim::Error::QueueFull

use std::collections::HashMap;
use std::time::Duration;

use apu_sim::{
    ApuDevice, BatchKey, Completion, DeviceQueue, Error, Priority, QueueConfig, SimConfig,
    TaskSpec, VecOp,
};
use hbm_sim::{DramSpec, MemorySystem};
use rag::{ApuRetriever, CorpusSpec, EmbeddingStore, RagVariant, ServeConfig, ShardedRagServer};

/// Submits a batchable no-output job tagged with `tag` so dispatch
/// composition is observable from the completion stream.
fn submit_echo(
    q: &mut DeviceQueue<'_, '_>,
    priority: Priority,
    arrival: Duration,
    key: u64,
    tag: u32,
) -> apu_sim::TaskHandle {
    q.submit(
        TaskSpec::batch(
            BatchKey::new(key),
            Box::new(tag),
            Box::new(
                |dev: &mut ApuDevice, payloads: Vec<Box<dyn std::any::Any>>| {
                    let report = dev.run_task(|ctx| {
                        ctx.core_mut().charge(VecOp::MulS16);
                        Ok(())
                    })?;
                    Ok((report, payloads.into_iter().map(Ok).collect()))
                },
            ),
        )
        .priority(priority)
        .at(arrival),
    )
    .expect("submission under capacity")
}

fn device() -> ApuDevice {
    ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20))
}

/// Invariant 1: within one (priority, key) class, dispatch start times
/// and batch membership follow submission order — coalescing never lets
/// a later submission overtake an earlier one of its own class.
#[test]
fn fifo_within_class_survives_batching() {
    let mut dev = device();
    let mut q = DeviceQueue::new(
        &mut dev,
        QueueConfig::default()
            .with_max_batch(3)
            .with_max_batch_wait(Duration::from_millis(1)),
    );
    let handles: Vec<_> = (0..10)
        .map(|i| {
            submit_echo(
                &mut q,
                Priority::Normal,
                Duration::from_micros(10 * i),
                7,
                i as u32,
            )
        })
        .collect();
    let done = q.drain().expect("drain");

    // Reconstruct per-handle start times; submission order must imply
    // non-decreasing dispatch order.
    let started: HashMap<_, _> = done.iter().map(|c| (c.handle, c.started_at)).collect();
    for pair in handles.windows(2) {
        assert!(
            started[&pair[0]] <= started[&pair[1]],
            "job submitted earlier must not start later than its successor"
        );
    }
    // And within one dispatch, members are a contiguous run of the
    // submission order (no gaps: job i and i+2 batched while i+1 rides
    // a later dispatch would violate FIFO).
    let mut by_dispatch: HashMap<u64, Vec<usize>> = HashMap::new();
    for c in &done {
        let idx = handles.iter().position(|&h| h == c.handle).unwrap();
        by_dispatch
            .entry(c.dispatch.expect("dispatched"))
            .or_default()
            .push(idx);
    }
    for (dispatch, mut members) in by_dispatch {
        members.sort_unstable();
        for pair in members.windows(2) {
            assert_eq!(
                pair[1],
                pair[0] + 1,
                "dispatch {dispatch} skipped a submission: members {members:?}"
            );
        }
    }
}

/// Invariant 2: grouping completions by dispatch id, every group has a
/// single priority and a single batch key — the dispatcher never forms
/// mixed batches even when compatible-looking work is interleaved.
#[test]
fn batches_never_mix_priorities_or_keys() {
    let mut dev = device();
    let mut q = DeviceQueue::new(
        &mut dev,
        QueueConfig::default()
            .with_max_batch(8)
            .with_max_batch_wait(Duration::from_millis(5)),
    );
    // Interleave two keys and three priorities, all arriving inside one
    // batch window so the dispatcher is maximally tempted to merge.
    for i in 0..24u64 {
        let priority = match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        submit_echo(
            &mut q,
            priority,
            Duration::from_micros(i),
            1 + (i % 2),
            i as u32,
        );
    }
    let done = q.drain().expect("drain");
    assert_eq!(done.len(), 24);

    let mut groups: HashMap<u64, Vec<&Completion>> = HashMap::new();
    for c in &done {
        groups
            .entry(c.dispatch.expect("dispatched"))
            .or_default()
            .push(c);
    }
    assert!(
        groups.len() > 3,
        "expected several distinct dispatches, got {}",
        groups.len()
    );
    for (dispatch, members) in groups {
        let p0 = members[0].priority;
        let k0 = members[0].batch_key;
        assert!(k0.is_some(), "batchable members carry their key");
        for m in &members {
            assert_eq!(m.priority, p0, "dispatch {dispatch} mixed priorities");
            assert_eq!(m.batch_key, k0, "dispatch {dispatch} mixed batch keys");
        }
        assert_eq!(members.len(), members[0].batch_size);
    }
}

/// Invariant 3: every hit list coming out of the batched server is
/// bitwise-identical to a fresh per-query retrieval on a fresh device —
/// batching is a scheduling optimization, not a numerical one.
#[test]
fn batched_hits_are_bitwise_identical_to_per_query_retrieval() {
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 8_192,
        },
        11,
    );
    let queries: Vec<Vec<i16>> = (0..9).map(|i| store.query(300 + i)).collect();

    let sim = SimConfig::default().with_l4_bytes(8 << 20);
    let mut server = ShardedRagServer::new(&store, 1, sim, ServeConfig::default()).unwrap();
    for (i, q) in queries.iter().enumerate() {
        server
            .submit(Duration::from_micros(20 * i as u64), q.clone())
            .unwrap();
    }
    let report = server.drain().unwrap();
    assert_eq!(report.completions.len(), queries.len());
    assert!(
        report.completions.iter().any(|c| c.batch_size > 1),
        "the stream must actually exercise coalescing"
    );

    let retriever = ApuRetriever::new(RagVariant::AllOpts);
    for done in &report.completions {
        let mut dev2 = ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20));
        let mut hbm2 = MemorySystem::new(DramSpec::hbm2e_16gb());
        let (hits, _, _) = retriever
            .retrieve(
                &mut dev2,
                &mut hbm2,
                &store,
                &queries[done.ticket.id() as usize],
                5,
            )
            .unwrap();
        assert_eq!(
            done.hits().expect("served"),
            hits,
            "query {} diverged from the synchronous path",
            done.ticket.id()
        );
    }
}

/// Invariant 4: admission control counts *pending submissions*, so
/// `QueueFull` fires at exactly `max_pending` no matter how many
/// dispatches the backlog would later coalesce into.
#[test]
fn queue_full_fires_at_exactly_max_pending() {
    let mut dev = device();
    let mut q = DeviceQueue::new(
        &mut dev,
        QueueConfig::default()
            .with_max_pending(4)
            .with_max_batch(8)
            .with_max_batch_wait(Duration::from_millis(1)),
    );
    for i in 0..4 {
        submit_echo(&mut q, Priority::Normal, Duration::ZERO, 1, i);
    }
    // All four pending jobs would fold into ONE dispatch, but admission
    // is by submission count: the fifth submit must be rejected.
    let err = q
        .submit(TaskSpec::batch(
            BatchKey::new(1),
            Box::new(4u32),
            Box::new(
                |dev: &mut ApuDevice, payloads: Vec<Box<dyn std::any::Any>>| {
                    let report = dev.run_task(|_| Ok(()))?;
                    Ok((report, payloads.into_iter().map(Ok).collect()))
                },
            ),
        ))
        .expect_err("fifth submission must be rejected");
    match err {
        Error::QueueFull { pending, capacity } => {
            assert_eq!((pending, capacity), (4, 4));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let done = q.drain().expect("drain");
    assert_eq!(done.len(), 4);
    assert_eq!(
        done[0].batch_size, 4,
        "backlog still coalesces after reject"
    );
}

/// The acceptance bar: at a saturating offered load, the batched drain
/// sustains strictly higher simulated QPS than the unbatched drain of
/// the very same stream, and both produce identical hits per query.
#[test]
fn batched_drain_beats_unbatched_at_equal_offered_load() {
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 16_384,
        },
        42,
    );
    // Saturating: arrivals far faster than per-query service, and more
    // queries than cores × MAX_BATCH can absorb in one wave.
    let queries: Vec<Vec<i16>> = (0..48).map(|i| store.query(i)).collect();
    let serve = |max_batch: usize| {
        let sim = SimConfig::default().with_l4_bytes(16 << 20);
        let cfg = ServeConfig {
            max_batch,
            ..ServeConfig::default()
        };
        let mut server = ShardedRagServer::new(&store, 1, sim, cfg).unwrap();
        for (i, q) in queries.iter().enumerate() {
            server
                .submit(Duration::from_micros(50 * i as u64), q.clone())
                .unwrap();
        }
        server.drain().unwrap()
    };

    let batched = serve(rag::MAX_BATCH);
    let unbatched = serve(1);

    assert_eq!(batched.completions.len(), queries.len());
    assert_eq!(unbatched.completions.len(), queries.len());

    // Identical hits, query by query.
    let by_ticket = |r: &rag::ServeReport| -> HashMap<u64, Vec<rag::Hit>> {
        r.completions
            .iter()
            .map(|c| (c.ticket.id(), c.hits().expect("served").to_vec()))
            .collect()
    };
    assert_eq!(by_ticket(&batched), by_ticket(&unbatched));

    // Fewer device dispatches, strictly higher sustained throughput.
    assert!(batched.queue.dispatches < unbatched.queue.dispatches);
    assert!(unbatched.completions.iter().all(|c| c.batch_size == 1));
    assert!(
        batched.throughput_qps() > unbatched.throughput_qps(),
        "batched {:.0} QPS must beat unbatched {:.0} QPS",
        batched.throughput_qps(),
        unbatched.throughput_qps()
    );
}
