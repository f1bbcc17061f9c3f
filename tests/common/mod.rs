//! The simulator axes the serving suites loop over in-process.
//!
//! A [`Point`] fixes every axis a serving suite composes: execution
//! mode, shard count, replication factor, fast-forward replay, index and
//! corpus mutation. [`CI_POINTS`] crosses mode {functional, timing} ×
//! shards {1, 4} × replicas {1, 2} × fast-forward {off, on}; the index
//! follows fast-forward (off → flat, on → IVF) and the mutation axis
//! follows replicas (1 → static, 2 → churn), so 16 points reach every
//! value of all six axes. Each suite appends its own default point
//! ([`Point::local`]) with [`points_with`].

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use std::fmt;

use apu_sim::{ExecMode, SimConfig};
use rag::{IndexMode, DEFAULT_NLIST, DEFAULT_NPROBE};
use ExecMode::{Functional, TimingOnly};

/// One composition of the simulator axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub mode: ExecMode,
    pub shards: usize,
    pub replicas: usize,
    pub fast_forward: bool,
    pub index: IndexMode,
    /// Serve a churning corpus (inserts, deletes, one compaction)
    /// instead of a static one.
    pub churn: bool,
}

impl Point {
    const fn ci(mode: ExecMode, shards: usize, replicas: usize, fast_forward: bool) -> Point {
        Point {
            mode,
            shards,
            replicas,
            fast_forward,
            index: if fast_forward {
                IndexMode::Ivf {
                    nlist: DEFAULT_NLIST,
                    nprobe: DEFAULT_NPROBE,
                }
            } else {
                IndexMode::Flat
            },
            churn: replicas == 2,
        }
    }

    /// A suite's default point on its own cluster shape: functional,
    /// fast-forward off, flat index, static corpus.
    pub const fn local(shards: usize, replicas: usize) -> Point {
        Point {
            mode: Functional,
            shards,
            replicas,
            fast_forward: false,
            index: IndexMode::Flat,
            churn: false,
        }
    }

    /// The point's mode and fast-forward setting on an 8 MiB device.
    pub fn sim(&self) -> SimConfig {
        SimConfig::default()
            .with_exec_mode(self.mode)
            .with_fast_forward(self.fast_forward)
            .with_l4_bytes(8 << 20)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}s×{}r ff{} {} {}",
            mode_name(self.mode),
            self.shards,
            self.replicas,
            u8::from(self.fast_forward),
            if self.index.is_ivf() { "ivf" } else { "flat" },
            if self.churn { "churn" } else { "static" },
        )
    }
}

fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        Functional => "functional",
        TimingOnly => "timing",
    }
}

/// The 16 composed points.
pub const CI_POINTS: [Point; 16] = [
    Point::ci(Functional, 1, 1, false),
    Point::ci(Functional, 1, 1, true),
    Point::ci(Functional, 1, 2, false),
    Point::ci(Functional, 1, 2, true),
    Point::ci(Functional, 4, 1, false),
    Point::ci(Functional, 4, 1, true),
    Point::ci(Functional, 4, 2, false),
    Point::ci(Functional, 4, 2, true),
    Point::ci(TimingOnly, 1, 1, false),
    Point::ci(TimingOnly, 1, 1, true),
    Point::ci(TimingOnly, 1, 2, false),
    Point::ci(TimingOnly, 1, 2, true),
    Point::ci(TimingOnly, 4, 1, false),
    Point::ci(TimingOnly, 4, 1, true),
    Point::ci(TimingOnly, 4, 2, false),
    Point::ci(TimingOnly, 4, 2, true),
];

/// [`CI_POINTS`], then the suite's own `local` point.
pub fn points_with(local: Point) -> impl Iterator<Item = Point> {
    CI_POINTS.into_iter().chain([local])
}

/// The (mode, fast-forward) settings [`CI_POINTS`] cross, for suites
/// that build no cluster: a named configuration on an 8 MiB device.
pub fn sims() -> impl Iterator<Item = (String, SimConfig)> {
    CI_POINTS
        .into_iter()
        .filter(|p| (p.shards, p.replicas) == (1, 1))
        .map(|p| {
            let name = format!("{} ff{}", mode_name(p.mode), u8::from(p.fast_forward));
            (name, p.sim())
        })
}
