//! Memory substrate: DRAM timing and the memory controller.
//!
//! The paper obtains off-package communication time from DRAMSim2 (§VI-A).
//! This crate substitutes a DDR3-style bank-timing model with an FR-FCFS
//! scheduler — the same first-order behaviour DRAMSim2 exposes to the
//! accelerator simulator: row-buffer locality, bank-level parallelism and a
//! peak-bandwidth ceiling.

pub mod address;
pub mod controller;
pub mod dram;
pub mod multichannel;
pub mod timing;

pub use address::{AddressMapping, Interleave};
pub use controller::MemoryController;
pub use dram::{Dram, DramRequest, DramStats};
pub use multichannel::MultiChannelDram;
pub use timing::DramTiming;
