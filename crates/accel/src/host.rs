//! The accelerator's host interface: the SALAM flow of the paper's Fig. 1
//! as one phase machine. A start handshake queues the DMA-in plan and
//! starts the accelerator; DMA-in moves the inputs from RAM into the
//! SPMs/RegBanks; compute runs the CDFG; DMA-out drains the results back;
//! the run ends done or failed. The machine owns the DMA engine and its
//! run state and borrows the accelerator and the RAM on every step, so the
//! same machine serves a private RAM buffer (the standalone DSA harness)
//! and the SoC's system RAM (a hosted accelerator).

use crate::dma::{DmaEngine, DmaJob};
use crate::engine::{AccelState, Accelerator};
use marvel_telemetry::{Event, FlightRecorder};

/// Where a host-interface run stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// No run has started.
    Idle,
    DmaIn,
    Compute,
    DmaOut,
    /// The results are in RAM.
    Done,
    /// A DMA transfer or the datapath failed.
    Failed,
}

/// The DMA engine plus the phase machine that drives an accelerator
/// through one offload.
#[derive(Debug, Clone)]
pub struct HostInterface {
    dma: DmaEngine,
    phase: HostPhase,
    /// Cycles stepped since the interface was created.
    cycle: u64,
    /// The DMA-out plan, queued when compute finishes.
    jobs_out: Vec<DmaJob>,
}

impl Default for HostInterface {
    fn default() -> Self {
        HostInterface { dma: DmaEngine::new(8), phase: HostPhase::Idle, cycle: 0, jobs_out: Vec::new() }
    }
}

impl HostInterface {
    pub fn phase(&self) -> HostPhase {
        self.phase
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The DMA engine, for its tallies and RAM-write watermark.
    pub fn dma(&self) -> &DmaEngine {
        &self.dma
    }

    /// True between the start handshake and the end of the run.
    pub fn busy(&self) -> bool {
        matches!(self.phase, HostPhase::DmaIn | HostPhase::Compute | HostPhase::DmaOut)
    }

    /// The start handshake: queue `jobs_in`, keep `jobs_out` for when
    /// compute finishes, and start `accel` with entry arguments `args`
    /// (the accelerator picks them up from its MMRs once DMA-in is done).
    pub fn start(
        &mut self,
        accel: &mut Accelerator,
        jobs_in: &[DmaJob],
        jobs_out: &[DmaJob],
        args: &[u64],
    ) {
        for j in jobs_in {
            self.dma.push(*j);
        }
        self.jobs_out.clear();
        self.jobs_out.extend_from_slice(jobs_out);
        accel.start(args);
        self.phase = HostPhase::DmaIn;
    }

    /// Advance the run to cycle `limit`, or until it ends, and return its
    /// phase. DMA phases move bytes every cycle; the end of DMA-in and the
    /// end of DMA-out take one cycle each; compute goes through
    /// [`Accelerator::advance`], which jumps between schedule events on
    /// the event engine. `ram_shadow` is `ram`'s taint shadow, if any.
    /// Failures are recorded on `fr` as `dma-error` / `accel-error`
    /// traps, the end of DMA-in and of compute as notes.
    pub fn advance(
        &mut self,
        limit: u64,
        accel: &mut Accelerator,
        ram: &mut [u8],
        mut ram_shadow: Option<&mut [u8]>,
        fr: &mut FlightRecorder,
    ) -> HostPhase {
        while self.cycle < limit {
            match self.phase {
                HostPhase::DmaIn | HostPhase::DmaOut if self.dma.busy() => {
                    self.cycle += 1;
                    if !self.dma.tick(ram, ram_shadow.as_deref_mut(), accel) {
                        fr.record(self.cycle, Event::Trap { tag: "dma-error" });
                        self.phase = HostPhase::Failed;
                    }
                }
                HostPhase::DmaIn => {
                    self.cycle += 1;
                    let value = self.dma.bytes_moved;
                    fr.record(self.cycle, Event::Note { label: "dma_in_bytes", value });
                    self.phase = HostPhase::Compute;
                }
                HostPhase::Compute => {
                    let (state, used) = accel.advance(limit - self.cycle);
                    self.cycle += used;
                    match state {
                        AccelState::Done => {
                            let value = accel.stats.compute_cycles;
                            fr.record(self.cycle, Event::Note { label: "compute_cycles", value });
                            for j in &self.jobs_out {
                                self.dma.push(*j);
                            }
                            self.phase = HostPhase::DmaOut;
                        }
                        AccelState::Error(_) => {
                            fr.record(self.cycle, Event::Trap { tag: "accel-error" });
                            self.phase = HostPhase::Failed;
                        }
                        AccelState::Idle | AccelState::Running => {}
                    }
                }
                HostPhase::DmaOut => {
                    self.cycle += 1;
                    self.phase = HostPhase::Done;
                }
                HostPhase::Idle | HostPhase::Done | HostPhase::Failed => break,
            }
        }
        self.phase
    }

    /// Restore to the pristine copy this interface was cloned from (the
    /// zero-copy campaign reset). Returns state bytes copied.
    pub fn reset_from(&mut self, pristine: &HostInterface) -> u64 {
        self.jobs_out.clone_from(&pristine.jobs_out);
        self.phase = pristine.phase;
        self.cycle = pristine.cycle;
        self.dma.reset_from(&pristine.dma) + 16
    }

    /// Functional-state equality for the convergence exit: everything but
    /// the DMA engine's observational tallies.
    pub fn state_eq(&self, other: &HostInterface) -> bool {
        self.phase == other.phase
            && self.cycle == other.cycle
            && self.jobs_out == other.jobs_out
            && self.dma.state_eq(&other.dma)
    }
}
