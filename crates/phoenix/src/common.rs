//! Shared plumbing for the Phoenix applications: the optimization
//! configuration, seeded text generation, tiling helpers, and the
//! multi-core tile scheduler.

use apu_sim::{ApuContext, ApuDevice, CoreTask, TaskReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Result;

/// Which of the paper's three optimizations a device kernel applies.
///
/// ```
/// use phoenix::OptConfig;
/// assert_eq!(OptConfig::all().label(), "all opts");
/// assert_eq!(OptConfig::only_opt1().label(), "opt1");
/// assert!(OptConfig::none().is_baseline());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct OptConfig {
    /// Opt1 — communication-aware reduction mapping (§4.2).
    pub reduction_mapping: bool,
    /// Opt2 — coalesced DMA (§4.3).
    pub coalesced_dma: bool,
    /// Opt3 — broadcast-friendly data layout (§4.4).
    pub broadcast_layout: bool,
}

impl OptConfig {
    /// No optimizations (the APU baseline).
    pub fn none() -> Self {
        OptConfig::default()
    }

    /// All three optimizations.
    pub fn all() -> Self {
        OptConfig {
            reduction_mapping: true,
            coalesced_dma: true,
            broadcast_layout: true,
        }
    }

    /// Only communication-aware reduction mapping.
    pub fn only_opt1() -> Self {
        OptConfig {
            reduction_mapping: true,
            ..OptConfig::default()
        }
    }

    /// Only DMA coalescing.
    pub fn only_opt2() -> Self {
        OptConfig {
            coalesced_dma: true,
            ..OptConfig::default()
        }
    }

    /// Only the broadcast-friendly layout.
    pub fn only_opt3() -> Self {
        OptConfig {
            broadcast_layout: true,
            ..OptConfig::default()
        }
    }

    /// The five Fig. 13 variants in plot order.
    pub fn fig13_variants() -> [OptConfig; 5] {
        [
            OptConfig::none(),
            OptConfig::only_opt1(),
            OptConfig::only_opt2(),
            OptConfig::only_opt3(),
            OptConfig::all(),
        ]
    }

    /// Whether no optimization is enabled.
    pub fn is_baseline(&self) -> bool {
        !self.reduction_mapping && !self.coalesced_dma && !self.broadcast_layout
    }

    /// Display label matching the figure legends.
    pub fn label(&self) -> &'static str {
        match (
            self.reduction_mapping,
            self.coalesced_dma,
            self.broadcast_layout,
        ) {
            (false, false, false) => "baseline",
            (true, false, false) => "opt1",
            (false, true, false) => "opt2",
            (false, false, true) => "opt3",
            (true, true, true) => "all opts",
            (true, true, false) => "opt1+2",
            (true, false, true) => "opt1+3",
            (false, true, true) => "opt2+3",
        }
    }
}

/// A small fixed vocabulary with Zipf-like frequencies, used by the text
/// workloads (word count, reverse index, string match). All words are
/// lowercase ASCII, 3–9 characters, and pairwise distinct.
pub fn vocabulary() -> Vec<&'static str> {
    vec![
        "the", "data", "memory", "vector", "cache", "bank", "core", "chip", "sram", "dram",
        "index", "query", "model", "layer", "token", "fetch", "store", "load", "shift", "merge",
        "batch", "tile", "page", "line", "word", "unit", "node", "edge", "graph", "tree", "hash",
        "sort", "scan", "join", "table", "array", "queue", "stack", "heap", "pool", "block",
        "frame", "trace", "event", "clock", "cycle", "power", "energy", "signal", "logic", "adder",
        "latch", "wire", "port", "lane", "group", "slice", "mask", "flag", "count", "value",
        "total", "delta", "alpha",
    ]
}

/// Generates a deterministic space-separated text corpus of roughly
/// `bytes` bytes with Zipf-like word frequencies from [`vocabulary`].
pub fn text_corpus(bytes: usize, seed: u64) -> String {
    let vocab = vocabulary();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(bytes + 16);
    while out.len() < bytes {
        // Zipf-ish: index ~ floor(v^2 * len) biases toward early words.
        let u: f64 = rng.gen();
        let idx = ((u * u) * vocab.len() as f64) as usize;
        out.push_str(vocab[idx.min(vocab.len() - 1)]);
        out.push(' ');
    }
    out.truncate(bytes);
    out
}

/// Splits `n_items` as evenly as possible across `parts`, returning
/// `(start, end)` ranges (some possibly empty).
pub fn split_ranges(n_items: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let base = n_items / parts;
    let extra = n_items % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Runs one closure per core over a partition of `n_tiles` tiles,
/// collecting each core's partial result. Cores contend for L4 bandwidth
/// exactly as the device model dictates.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn parallel_tiles<P, F>(
    dev: &mut ApuDevice,
    n_tiles: usize,
    work: F,
) -> Result<(Vec<P>, TaskReport)>
where
    P: Default + Send,
    F: Fn(&mut ApuContext<'_>, usize, usize) -> Result<P>,
{
    let cores = dev.config().cores.min(n_tiles.max(1));
    let ranges = split_ranges(n_tiles, cores);
    let mut partials: Vec<P> = (0..cores).map(|_| P::default()).collect();
    let work = &work;
    let tasks: Vec<CoreTask<'_>> = partials
        .iter_mut()
        .zip(ranges)
        .map(|(slot, (start, end))| {
            let f: CoreTask<'_> = Box::new(move |ctx: &mut ApuContext<'_>| {
                *slot = work(ctx, start, end)?;
                Ok(())
            });
            f
        })
        .collect();
    let report = dev.run_parallel(tasks)?;
    Ok((partials, report))
}

/// Number of worker threads for the multi-threaded CPU baselines (the
/// paper configures Phoenix with up to 16).
pub fn cpu_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Scatter/gather helper for the multi-threaded CPU baselines: maps
/// chunks of `items` on worker threads and folds the partial results.
pub fn map_reduce<T, P, M, R>(items: &[T], threads: usize, map: M, reduce: R) -> P
where
    T: Sync,
    P: Send + Default,
    M: Fn(&[T]) -> P + Sync,
    R: Fn(P, P) -> P,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() < 2 {
        return map(items);
    }
    let ranges = split_ranges(items.len(), threads);
    let mut partials: Vec<P> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let map = &map;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|(a, b)| s.spawn(move || map(&items[a..b])))
            .collect();
        for h in handles {
            partials.push(h.join().expect("worker panicked"));
        }
    });
    partials.into_iter().fold(P::default(), reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_labels_cover_all_combinations() {
        for o in OptConfig::fig13_variants() {
            assert!(!o.label().is_empty());
        }
        assert_eq!(
            OptConfig {
                reduction_mapping: true,
                coalesced_dma: true,
                broadcast_layout: false
            }
            .label(),
            "opt1+2"
        );
    }

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let a = text_corpus(1000, 7);
        let b = text_corpus(1000, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert_ne!(a, text_corpus(1000, 8));
        // all words from the vocabulary
        let vocab = vocabulary();
        for w in a.split_whitespace().take(50) {
            assert!(
                vocab.contains(&w) || vocab.iter().any(|v| v.starts_with(w)),
                "unexpected word {w}"
            );
        }
    }

    #[test]
    fn vocabulary_is_distinct_and_wellformed() {
        let vocab = vocabulary();
        let mut sorted = vocab.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), vocab.len(), "duplicate vocabulary words");
        for w in vocab {
            assert!(w.len() >= 3 && w.len() <= 9);
            assert!(w.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn split_ranges_covers_everything() {
        let r = split_ranges(10, 4);
        assert_eq!(r, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(split_ranges(2, 4).len(), 4);
        assert_eq!(
            split_ranges(0, 3).iter().map(|(a, b)| b - a).sum::<usize>(),
            0
        );
    }

    #[test]
    fn map_reduce_matches_serial() {
        let data: Vec<u64> = (0..10_000).collect();
        let serial: u64 = data.iter().sum();
        let parallel = map_reduce(&data, 8, |chunk| chunk.iter().sum::<u64>(), |a, b| a + b);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_tiles_partitions_work() {
        let mut dev = ApuDevice::new(apu_sim::SimConfig::default().with_l4_bytes(1 << 20));
        let (partials, report) = parallel_tiles(&mut dev, 10, |ctx, start, end| {
            // charge something proportional to the range
            for _ in start..end {
                ctx.core_mut().charge(apu_sim::VecOp::AddU16);
            }
            Ok(end - start)
        })
        .unwrap();
        assert_eq!(partials.iter().sum::<usize>(), 10);
        assert_eq!(report.cores_used, 4);
        assert!(report.cycles.get() > 0);
    }
}
