//! DMA engine: moves data between system RAM and accelerator SRAMs with a
//! modelled bandwidth, as in gem5-SALAM's cluster DMA devices.

use crate::air::MemRef;
use crate::engine::Accelerator;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDir {
    /// RAM → SRAM.
    ToSram,
    /// SRAM → RAM.
    ToRam,
}

/// One queued transfer. `ram_off` is a byte offset into the RAM slice the
/// engine is ticked with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaJob {
    pub dir: DmaDir,
    pub ram_off: usize,
    pub mem: MemRef,
    pub mem_off: usize,
    pub len: usize,
}

/// The DMA engine: processes jobs in order at `bandwidth` bytes/cycle.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    jobs: std::collections::VecDeque<DmaJob>,
    progress: usize,
    /// Bytes moved per cycle.
    pub bandwidth: usize,
    pub bytes_moved: u64,
    /// Watermark `[lo, hi)` over RAM offsets this engine wrote (ToRam
    /// drains) since the last [`reset_from`](Self::reset_from) — lets the
    /// zero-copy campaign reset journal RAM writes that bypass the bus.
    ram_lo: usize,
    ram_hi: usize,
}

impl DmaEngine {
    pub fn new(bandwidth: usize) -> Self {
        assert!(bandwidth > 0);
        DmaEngine {
            jobs: Default::default(),
            progress: 0,
            bandwidth,
            bytes_moved: 0,
            ram_lo: usize::MAX,
            ram_hi: 0,
        }
    }

    /// RAM byte range written by ToRam transfers since the last reset
    /// (`None` when no such write happened).
    pub fn ram_written_range(&self) -> Option<(usize, usize)> {
        (self.ram_lo < self.ram_hi).then_some((self.ram_lo, self.ram_hi))
    }

    /// Restore from `pristine`, clearing the RAM-write watermark. Returns
    /// state bytes copied (zero-copy campaign reset accounting).
    pub fn reset_from(&mut self, pristine: &DmaEngine) -> u64 {
        self.jobs.clone_from(&pristine.jobs);
        self.progress = pristine.progress;
        self.bandwidth = pristine.bandwidth;
        self.bytes_moved = pristine.bytes_moved;
        self.ram_lo = usize::MAX;
        self.ram_hi = 0;
        self.jobs.len() as u64 * std::mem::size_of::<DmaJob>() as u64 + 24
    }

    /// Functional-state equality for the convergence exit: the job queue,
    /// in-flight progress and bandwidth steer future transfers; the
    /// bytes-moved tally and RAM watermark are observational.
    pub fn state_eq(&self, pristine: &DmaEngine) -> bool {
        self.jobs == pristine.jobs
            && self.progress == pristine.progress
            && self.bandwidth == pristine.bandwidth
    }

    pub fn push(&mut self, job: DmaJob) {
        self.jobs.push_back(job);
    }

    pub fn busy(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// Advance one cycle; returns `false` on an out-of-range transfer.
    /// With a RAM taint shadow (marvel-taint), shadow bytes move with the
    /// data, and tainted bytes drained to RAM are recorded as
    /// architecturally visible.
    pub fn tick(
        &mut self,
        ram: &mut [u8],
        ram_shadow: Option<&mut [u8]>,
        accel: &mut Accelerator,
    ) -> bool {
        let Some(job) = self.jobs.front().copied() else { return true };
        let n = self.bandwidth.min(job.len - self.progress);
        let ram_lo = job.ram_off + self.progress;
        if ram_lo + n > ram.len() {
            return false;
        }
        let mem_lo = job.mem_off + self.progress;
        match job.dir {
            DmaDir::ToSram => {
                if accel.mem(job.mem).fill(mem_lo, &ram[ram_lo..ram_lo + n]).is_none() {
                    return false;
                }
                if accel.taint_enabled() {
                    let sh = ram_shadow.as_deref().and_then(|s| s.get(ram_lo..ram_lo + n));
                    let mname = accel.mem_ref(job.mem).kind.name();
                    accel.mem(job.mem).taint_fill(mem_lo, n, sh);
                    if sh.is_some_and(|s| s.iter().any(|&b| b != 0)) {
                        accel.taint_hop("RAM", mname);
                    }
                }
            }
            DmaDir::ToRam => {
                let Some(chunk) = accel.mem(job.mem).drain(mem_lo, n) else { return false };
                ram[ram_lo..ram_lo + n].copy_from_slice(chunk);
                self.ram_lo = self.ram_lo.min(ram_lo);
                self.ram_hi = self.ram_hi.max(ram_lo + n);
                if accel.taint_enabled() {
                    let sh = accel.mem_ref(job.mem).taint_drain(mem_lo, n);
                    if let Some(rs) = ram_shadow.and_then(|rs| rs.get_mut(ram_lo..ram_lo + n)) {
                        match sh {
                            Some(sh) => rs.copy_from_slice(sh),
                            None => rs.fill(0),
                        }
                    }
                    if sh.is_some_and(|s| s.iter().any(|&b| b != 0)) {
                        let mname = accel.mem_ref(job.mem).kind.name();
                        accel.taint_hop(mname, "RAM");
                        accel.taint_arch(mname);
                    }
                }
            }
        }
        self.progress += n;
        self.bytes_moved += n as u64;
        if self.progress >= job.len {
            self.jobs.pop_front();
            self.progress = 0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::CdfgBuilder;
    use crate::engine::FuConfig;
    use crate::sram::{Sram, SramKind};

    /// Run all queued jobs to completion; returns cycles consumed.
    fn run_all(dma: &mut DmaEngine, ram: &mut [u8], accel: &mut Accelerator) -> Option<u64> {
        let mut cycles = 0;
        while dma.busy() {
            if !dma.tick(ram, None, accel) {
                return None;
            }
            cycles += 1;
        }
        Some(cycles)
    }

    fn dummy_accel() -> Accelerator {
        let mut g = CdfgBuilder::new();
        let b = g.block(0);
        g.select(b);
        g.finish();
        let spm = Sram::new("S", SramKind::Spm, 64, 2);
        Accelerator::new("d", g.build().unwrap(), FuConfig::default(), vec![spm], vec![], 0)
    }

    #[test]
    fn roundtrip_transfer() {
        let mut a = dummy_accel();
        let mut ram = vec![0u8; 128];
        for (i, b) in ram.iter_mut().enumerate().take(32) {
            *b = i as u8;
        }
        let mut dma = DmaEngine::new(8);
        dma.push(DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 32 });
        let c1 = run_all(&mut dma, &mut ram, &mut a).unwrap();
        assert_eq!(c1, 4); // 32 bytes at 8 B/cycle
        assert_eq!(a.spms[0].bytes()[..32], (0..32).map(|i| i as u8).collect::<Vec<_>>()[..]);
        dma.push(DmaJob { dir: DmaDir::ToRam, ram_off: 64, mem: MemRef::Spm(0), mem_off: 0, len: 32 });
        run_all(&mut dma, &mut ram, &mut a).unwrap();
        assert_eq!(ram[64..96], ram[0..32].to_vec()[..]);
    }

    #[test]
    fn out_of_range_fails() {
        let mut a = dummy_accel();
        let mut ram = vec![0u8; 16];
        let mut dma = DmaEngine::new(8);
        dma.push(DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 60, len: 16 });
        assert!(run_all(&mut dma, &mut ram, &mut a).is_none());
    }
}
