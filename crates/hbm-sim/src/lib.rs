#![warn(missing_docs)]

//! DRAM timing and energy simulator in the spirit of Ramulator 2 +
//! DRAMPower, specialized for the paper's methodology: the RAG evaluation
//! models the shared off-chip memory with a **simulated HBM2e** (16 GB,
//! 2 ranks, 8 channels, 1.6 GHz, 380–420 GB/s peak) while everything else
//! is measured on the device. A DDR4 preset models the APU's native
//! 23.8 GB/s device DRAM for comparison benches.
//!
//! The simulator tracks per-bank row-buffer state, bank/rank timing
//! constraints (tRCD/tRP/tRAS/tCCD/tRRD/tFAW), per-channel data-bus
//! occupancy, and periodic refresh (tREFI/tRFC), using an in-order
//! open-page controller with channel-interleaved address mapping.
//! Energy is accounted per command plus background power, DRAMPower
//! style.
//!
//! ```rust
//! use hbm_sim::{DramSpec, MemorySystem};
//!
//! let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
//! let res = mem.stream_read(0, 64 << 20); // read 64 MiB
//! let gbps = res.bandwidth_gbps();
//! assert!(gbps > 380.0 && gbps < 425.0, "achieved {gbps} GB/s");
//! ```

pub mod address;
pub mod energy;
pub mod spec;
pub mod system;

pub use address::{AddressMap, DecodedAddr};
pub use energy::{DramEnergy, EnergyParams};
pub use spec::DramSpec;
pub use system::{AccessKind, MemorySystem, StreamMemoCounters, StreamResult};
