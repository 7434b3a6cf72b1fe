//! # marvel-cpu
//!
//! Cycle-level out-of-order CPU model — the gem5 O3 analogue that the
//! gem5-MARVEL reproduction injects faults into.
//!
//! The pipeline is fetch (decoding real bytes out of the L1I) → rename
//! (physical register file + map + free list) → issue (ALU/mul-div/memory
//! ports, oldest-first wakeup-select) → execute (loads with store-queue
//! forwarding and conservative disambiguation) → commit (precise traps,
//! commit-time branch squash, senior-store drain).
//!
//! Injectable structures: integer/FP physical register files, L1I/L1D/L2
//! data arrays, load queue, store queue, ROB result fields, rename map.
//! All of them carry explicit bits; see [`cache::FaultFate`] for the
//! early-termination monitoring contract.

pub mod bp;
pub mod cache;
pub mod config;
pub mod core;
pub mod dirty;
pub mod lane;
pub mod lsq;
pub mod prf;
pub mod testbus;

pub use crate::core::{
    Bus, CommitEffect, CommitRecord, Core, CoreDirtyMarks, CoreStats, StateDiff, StepEvent, TraceMode,
};
pub use cache::{Cache, CacheLines, CacheSets, FaultFate, RungLines};
pub use config::{CacheConfig, CoreConfig};
pub use dirty::{DirtyMap, DirtyMarks};
pub use lane::{each_lane, ForkCause, LaneEngine, MAX_LANES};
pub use lsq::{LoadQueue, StoreQueue};
pub use prf::{FreeList, PhysRegFile, RenameMap};
