//! # marvel-core
//!
//! The gem5-MARVEL fault-injection framework (the paper's primary
//! contribution): microarchitecture-level statistical fault injection for
//! heterogeneous SoCs — CPUs of all three prevailing 64-bit ISA flavours
//! plus SALAM-style domain-specific accelerators — under transient and
//! permanent fault models, reporting both AVF and HVF.
//!
//! Layout mirrors the paper's Fig. 2 campaign pipeline:
//!
//! 1. [`fault::MaskGenerator`] draws statistically sampled fault masks;
//! 2. [`campaign::Golden::prepare`] builds the checkpoint + fault-free
//!    reference (output and commit trace);
//! 3. [`campaign::run_campaign`] fans injection runs out over parallel
//!    workers with early termination for definitively masked faults;
//! 4. results classify into Masked/SDC/Crash (AVF) and Masked/Corruption
//!    (HVF), with [`stats`] providing error margins, weighted AVF and the
//!    OPF performance-reliability metric.
//!
//! Accelerator-side campaigns use [`dsa::run_dsa_campaign`] on a
//! [`dsa::DsaHarness`] (DMA-in → compute → DMA-out, cycle-timed
//! injection).

pub mod campaign;
pub mod dsa;
pub mod fault;
pub mod features;
mod ladder;
pub mod report;
pub mod stats;

pub use campaign::{
    build_campaign_ladder, campaign_masks, drive_masks, run_campaign, run_masks, run_one,
    run_one_spanned, trace_pipeline_pair, CampaignConfig, CampaignResult, DriveOutcome, DsaEngine,
    FaultEffect, Golden, GoldenError, HvfEffect, Ladder, ResetMode, RunRecord, TelemetryConfig,
    WorkerCtx,
};
pub use dsa::{
    build_dsa_ladder, drive_dsa_masks, dsa_campaign_masks, run_dsa_campaign, run_dsa_masks, DsaGolden,
    DsaHarness, DsaLadder, DsaOutcome,
};
pub use fault::{FaultKind, FaultMask, FaultModel, MaskGenerator};
pub use marvel_soc::Target;
pub use report::{
    attribution_by_structure, attribution_csv, attribution_jsonl, crash_breakdown, csv_row,
    render_attribution, render_campaign, PropagationMatrix, StructureAttribution, CSV_HEADER,
};
pub use stats::{error_margin, opf, required_samples, weighted_avf};
