//! # marvel-accel
//!
//! gem5-SALAM-style domain-specific accelerator modelling: a CDFG dynamic
//! execution engine ([`engine::Accelerator`]) with functional-unit
//! constraints, scratchpad memories and register banks ([`sram::Sram`]),
//! memory-mapped registers ([`mmr::Mmr`]), a DMA engine
//! ([`dma::DmaEngine`]) — every storage element bit-accurate and
//! fault-injectable — and the host interface that drives an offload
//! through them ([`host::HostInterface`]).
//!
//! ```
//! use marvel_accel::air::{CdfgBuilder, MemRef};
//! use marvel_accel::engine::{Accelerator, AccelState, FuConfig};
//! use marvel_accel::sram::{Sram, SramKind};
//! use marvel_isa::AluOp;
//!
//! // doubler: OUT[0] = IN[0] * 2
//! let mut g = CdfgBuilder::new();
//! let b = g.block(0);
//! g.select(b);
//! let zero = g.konst(0);
//! let v = g.load(MemRef::Spm(0), 8, zero);
//! let two = g.konst(2);
//! let d = g.alu(AluOp::Mul, v, two);
//! g.store(MemRef::Spm(1), 8, zero, d);
//! g.finish();
//!
//! let mut a = Accelerator::new(
//!     "doubler",
//!     g.build()?,
//!     FuConfig::default(),
//!     vec![Sram::new("IN", SramKind::Spm, 8, 1), Sram::new("OUT", SramKind::Spm, 8, 1)],
//!     vec![],
//!     0,
//! );
//! a.spms[0].write(0, 8, 21).unwrap();
//! a.start(&[]);
//! while a.tick() == AccelState::Running {}
//! assert_eq!(a.spms[1].read(0, 8), Some(42));
//! # Ok::<(), String>(())
//! ```

pub mod air;
pub mod dma;
pub mod engine;
pub mod host;
pub mod mmr;
pub mod schedule;
pub mod sram;

pub use air::{Cdfg, CdfgBuilder, MemRef, NodeId, NodeOp};
pub use dma::{DmaDir, DmaEngine, DmaJob};
pub use engine::{
    AccelEngine, AccelError, AccelSite, AccelState, AccelStats, Accelerator, FuConfig, WarpAbort,
};
pub use host::{HostInterface, HostPhase};
pub use mmr::Mmr;
pub use schedule::{build_schedule, BlockSchedule, GoldenTrace, MemTiming, StaticSchedule};
pub use sram::{Sram, SramFate, SramKind};
