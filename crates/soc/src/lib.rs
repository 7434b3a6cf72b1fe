//! # marvel-soc
//!
//! Heterogeneous SoC composition: the out-of-order core (`marvel-cpu`),
//! hosted SALAM-style accelerators (`marvel-accel`) behind memory-mapped
//! registers and DMA, a console device, and GIC/PLIC/APIC-flavour
//! interrupt controllers — the full-system substrate the gem5-MARVEL
//! reproduction injects faults into.
//!
//! [`System`] is `Clone`: cloning is the checkpoint mechanism, capturing
//! architectural and microarchitectural state including warm caches.

pub mod hosted;
pub mod irq;
pub mod isr;
pub mod system;

pub use hosted::{DmaPlanEntry, HostedAccel};
pub use irq::{IrqController, IrqCtrlKind};
pub use system::{
    thread_ticks, RunOutcome, RungView, SocBus, SysDirtyMarks, SysEvent, SysSnapshot, System, Target,
};
