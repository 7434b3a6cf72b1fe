//! Host-driven accelerator: the SALAM flow where the CPU programs the
//! accelerator's MMRs, DMA moves data between system RAM and the
//! accelerator's SPMs/RegBanks, and completion is signalled by interrupt.
//! The offload itself runs on the accelerator's [`HostInterface`]; this
//! wrapper adds what only the SoC needs: the DMA plan the host programs
//! through MMR data registers, restart on a new CTRL start, and the
//! completion interrupt.

use marvel_accel::mmr::{CTRL_START, MMR_CTRL, MMR_DATA0, MMR_STATUS, STATUS_DONE, STATUS_ERROR};
use marvel_accel::{Accelerator, DmaDir, DmaJob, HostInterface, HostPhase, MemRef};
use marvel_ir::memmap::RAM_BASE;
use marvel_telemetry::FlightRecorder;

/// One entry of an accelerator's DMA plan. The RAM address comes from MMR
/// data register `addr_arg` at start time, so the host chooses buffers.
#[derive(Debug, Clone, Copy)]
pub struct DmaPlanEntry {
    pub dir: DmaDir,
    /// Index of the MMR data register holding the RAM byte address.
    pub addr_arg: usize,
    pub mem: MemRef,
    pub mem_off: usize,
    pub len: usize,
}

/// An accelerator plus its host interface, programmed over MMRs.
#[derive(Debug, Clone)]
pub struct HostedAccel {
    pub accel: Accelerator,
    pub host: HostInterface,
    pub plan_in: Vec<DmaPlanEntry>,
    pub plan_out: Vec<DmaPlanEntry>,
    /// MMR data registers passed as CDFG entry arguments.
    pub compute_args: Vec<usize>,
    /// Edge-triggered completion interrupt (consumed by the SoC).
    pub irq_out: bool,
}

impl HostedAccel {
    pub fn new(
        mut accel: Accelerator,
        plan_in: Vec<DmaPlanEntry>,
        plan_out: Vec<DmaPlanEntry>,
        compute_args: Vec<usize>,
    ) -> Self {
        let max_reg = plan_in
            .iter()
            .chain(&plan_out)
            .map(|e| e.addr_arg + 1)
            .chain(compute_args.iter().map(|&i| i + 1))
            .max()
            .unwrap_or(0);
        accel.mmr.ensure_data_regs(max_reg);
        HostedAccel {
            accel,
            host: HostInterface::default(),
            plan_in,
            plan_out,
            compute_args,
            irq_out: false,
        }
    }

    /// Restore the run state to the pristine checkpoint this wrapper was
    /// cloned from (zero-copy campaign reset); the DMA plan and argument
    /// registers are configuration no run changes. Returns state bytes
    /// copied.
    pub fn reset_from(&mut self, pristine: &HostedAccel) -> u64 {
        self.irq_out = pristine.irq_out;
        self.accel.reset_from(&pristine.accel) + self.host.reset_from(&pristine.host) + 16
    }

    /// Functional-state equality for the convergence exit: the host
    /// interface, the IRQ line and the wrapped accelerator must match.
    pub fn state_eq(&self, pristine: &HostedAccel) -> bool {
        self.irq_out == pristine.irq_out
            && self.host.state_eq(&pristine.host)
            && self.accel.state_eq(&pristine.accel)
    }

    /// `plan` with the RAM addresses its MMR data registers hold, as
    /// offsets into system RAM; `None` if one lies below RAM.
    fn jobs(&self, plan: &[DmaPlanEntry]) -> Option<Vec<DmaJob>> {
        plan.iter()
            .map(|e| {
                let ram_addr = self.accel.mmr.peek(MMR_DATA0 + e.addr_arg);
                let ram_off = ram_addr.checked_sub(RAM_BASE)? as usize;
                Some(DmaJob { dir: e.dir, ram_off, mem: e.mem, mem_off: e.mem_off, len: e.len })
            })
            .collect()
    }

    /// End the offload with STATUS.error and the completion interrupt.
    fn fail(&mut self) {
        self.accel.mmr.poke(MMR_CTRL, 0);
        self.accel.mmr.poke(MMR_STATUS, STATUS_DONE | STATUS_ERROR);
        self.irq_out = true;
    }

    /// Advance one cycle over system RAM `ram` and its taint shadow, if
    /// any. An idle (or finished) accelerator whose CTRL start bit is set
    /// takes the start handshake: both DMA plans are resolved against the
    /// MMR data registers, and the host interface starts the offload.
    pub fn tick(&mut self, ram: &mut [u8], ram_shadow: Option<&mut [u8]>) {
        if self.host.busy() {
            let limit = self.host.cycle() + 1;
            let fr = &mut FlightRecorder::disabled();
            match self.host.advance(limit, &mut self.accel, ram, ram_shadow, fr) {
                HostPhase::Done => self.irq_out = true,
                HostPhase::Failed => self.fail(),
                _ => {}
            }
        } else if self.accel.mmr.peek(MMR_CTRL) & CTRL_START != 0 {
            self.accel.reset();
            let (Some(jobs_in), Some(jobs_out)) = (self.jobs(&self.plan_in), self.jobs(&self.plan_out))
            else {
                return self.fail();
            };
            let args: Vec<u64> =
                self.compute_args.iter().map(|&i| self.accel.mmr.peek(MMR_DATA0 + i)).collect();
            self.host.start(&mut self.accel, &jobs_in, &jobs_out, &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marvel_accel::air::CdfgBuilder;
    use marvel_accel::{FuConfig, Sram, SramKind};
    use marvel_isa::AluOp;

    /// OUT[i] = IN[i] + 1 for i in 0..arg0
    fn inc_accel() -> Accelerator {
        let mut g = CdfgBuilder::new();
        let entry = g.block(1);
        let body = g.block(2);
        let done = g.block(0);
        g.select(entry);
        let n = g.arg(0);
        let z = g.konst(0);
        g.jump(body, &[z, n]);
        g.select(body);
        let i = g.arg(0);
        let n = g.arg(1);
        let eight = g.konst(8);
        let addr = g.alu(AluOp::Mul, i, eight);
        let v = g.load(MemRef::Spm(0), 8, addr);
        let one = g.konst(1);
        let v2 = g.alu(AluOp::Add, v, one);
        g.store(MemRef::Spm(1), 8, addr, v2);
        let i2 = g.alu(AluOp::Add, i, one);
        let more = g.alu(AluOp::Sltu, i2, n);
        g.branch(more, body, &[i2, n], done, &[]);
        g.select(done);
        g.finish();
        Accelerator::new(
            "inc",
            g.build().unwrap(),
            FuConfig::default(),
            vec![Sram::new("IN", SramKind::Spm, 64, 2), Sram::new("OUT", SramKind::Spm, 64, 2)],
            vec![],
            1,
        )
    }

    #[test]
    fn full_hosted_flow() {
        let a = inc_accel();
        let mut h = HostedAccel::new(
            a,
            vec![DmaPlanEntry {
                dir: DmaDir::ToSram,
                addr_arg: 1,
                mem: MemRef::Spm(0),
                mem_off: 0,
                len: 64,
            }],
            vec![DmaPlanEntry {
                dir: DmaDir::ToRam,
                addr_arg: 2,
                mem: MemRef::Spm(1),
                mem_off: 0,
                len: 64,
            }],
            vec![0], // arg0 = element count from data reg 0
        );
        let mut ram = vec![0u8; 4096];
        for i in 0..8u64 {
            ram[(i * 8) as usize..(i * 8 + 8) as usize].copy_from_slice(&(i * 10).to_le_bytes());
        }
        // Program MMRs: count=8, in at RAM_BASE+0, out at RAM_BASE+1024.
        h.accel.mmr.write(marvel_accel::mmr::MMR_DATA0, 8).unwrap();
        h.accel.mmr.write(marvel_accel::mmr::MMR_DATA0 + 1, RAM_BASE).unwrap();
        h.accel.mmr.write(marvel_accel::mmr::MMR_DATA0 + 2, RAM_BASE + 1024).unwrap();
        h.accel.mmr.write(MMR_CTRL, CTRL_START).unwrap();
        for _ in 0..100_000 {
            h.tick(&mut ram, None);
            if h.irq_out {
                break;
            }
        }
        assert!(h.irq_out, "hosted flow must raise completion IRQ");
        assert_eq!(h.accel.mmr.read(MMR_STATUS).unwrap() & STATUS_DONE, STATUS_DONE);
        for i in 0..8u64 {
            let off = 1024 + (i * 8) as usize;
            let v = u64::from_le_bytes(ram[off..off + 8].try_into().unwrap());
            assert_eq!(v, i * 10 + 1);
        }
        assert!(h.host.dma().bytes_moved == 128 && h.accel.stats.compute_cycles > 0);
    }

    #[test]
    fn bad_dma_address_fails_gracefully() {
        let a = inc_accel();
        let mut h = HostedAccel::new(
            a,
            vec![DmaPlanEntry {
                dir: DmaDir::ToSram,
                addr_arg: 1,
                mem: MemRef::Spm(0),
                mem_off: 0,
                len: 64,
            }],
            vec![],
            vec![0],
        );
        let mut ram = vec![0u8; 128];
        h.accel.mmr.write(marvel_accel::mmr::MMR_DATA0, 8).unwrap();
        h.accel.mmr.write(marvel_accel::mmr::MMR_DATA0 + 1, 0x10).unwrap(); // below RAM_BASE
        h.accel.mmr.write(MMR_CTRL, CTRL_START).unwrap();
        for _ in 0..100 {
            h.tick(&mut ram, None);
        }
        assert!(h.irq_out);
        assert_eq!(h.accel.mmr.read(MMR_STATUS).unwrap() & STATUS_ERROR, STATUS_ERROR);
    }
}
