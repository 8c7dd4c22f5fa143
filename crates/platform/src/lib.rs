//! Model of the STI Cell Broadband Engine processor, as used by the
//! steady-state streaming scheduler of Gallet, Jacquelin and Marchal
//! (*Scheduling complex streaming applications on the Cell processor*,
//! RR-LIP-2009-29 / IPDPS 2010).
//!
//! The model (paper §2.1) reduces the Cell to:
//!
//! * `nP` **PPE** cores (PowerPC, transparent access to main memory) and
//!   `nS` **SPE** cores (small RISC vector cores with a 256 kB local store),
//!   indexed so that `PE 0 .. PE nP-1` are PPEs and `PE nP .. PE nP+nS-1`
//!   are SPEs;
//! * a **bidirectional bounded-multiport** communication model: every PE
//!   owns an incoming and an outgoing interface of bandwidth `bw`
//!   (25 GB/s each way); the EIB ring itself (200 GB/s aggregate) is
//!   assumed contention-free;
//! * **DMA queue limits**: each SPE can have at most 16 concurrent
//!   incoming DMA transfers, and at most 8 concurrent transfers on the
//!   dedicated SPE↔PPE proxy queue;
//! * **local stores**: each SPE has `LS = 256 kB` of memory, of which the
//!   replicated application code consumes `code` bytes, leaving
//!   `LS - code` for stream buffers.
//!
//! The costs of the scheduling framework itself, which the model leaves
//! out, are the constants of [`framework`].
//!
//! Main-memory capacity is *not* modelled (paper: "we do not consider its
//! limited size as a constraint").
//!
//! # Example
//!
//! ```
//! use cellstream_platform::{CellSpec, PeKind};
//!
//! let ps3 = CellSpec::ps3();
//! assert_eq!(ps3.n_ppe(), 1);
//! assert_eq!(ps3.n_spe(), 6); // only six SPEs are usable on the PlayStation 3
//! assert_eq!(ps3.kind_of(ps3.pe(0)), PeKind::Ppe);
//! assert!(ps3.local_store_budget() < 256 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framework;
pub mod spec;
pub mod units;

pub use spec::{CellSpec, CellSpecBuilder, PeId, PeKind, SpecError};
pub use units::{Bandwidth, ByteSize};

#[cfg(test)]
mod tests;
