//! Memory-mapped registers: the accelerator's host interface (control,
//! status, data/argument registers) — itself a fault-injection target.

use crate::sram::SramFate;

/// Register indices.
pub const MMR_CTRL: usize = 0;
pub const MMR_STATUS: usize = 1;
/// First data/argument register.
pub const MMR_DATA0: usize = 2;

/// CTRL bit: start computation.
pub const CTRL_START: u64 = 1;
/// STATUS bit: computation finished.
pub const STATUS_DONE: u64 = 1;
/// STATUS bit: the datapath raised an error (e.g. out-of-bounds access).
pub const STATUS_ERROR: u64 = 2;

/// An MMR block of 64-bit registers.
#[derive(Debug, Clone)]
pub struct Mmr {
    regs: Vec<u64>,
    stuck: Vec<(u64, bool)>,
    armed: Option<(usize, SramFate)>,
    /// marvel-taint shadow masks, one per register (empty = off).
    shadow: Vec<u64>,
}

impl Mmr {
    pub fn new(n_data: usize) -> Self {
        Mmr { regs: vec![0; MMR_DATA0 + n_data], stuck: Vec::new(), armed: None, shadow: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Grow the register block so at least `n_data` data registers exist
    /// (hosted configurations need extra registers for DMA addresses).
    pub fn ensure_data_regs(&mut self, n_data: usize) {
        let need = MMR_DATA0 + n_data;
        if self.regs.len() < need {
            self.regs.resize(need, 0);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    pub fn read(&mut self, idx: usize) -> Option<u64> {
        if idx >= self.regs.len() {
            return None;
        }
        if let Some((r, fate)) = &mut self.armed {
            if *r == idx && *fate == SramFate::Pending {
                *fate = SramFate::Read;
            }
        }
        Some(self.regs[idx])
    }

    pub fn write(&mut self, idx: usize, v: u64) -> Option<()> {
        if idx >= self.regs.len() {
            return None;
        }
        if let Some((r, fate)) = &mut self.armed {
            if *r == idx && *fate == SramFate::Pending {
                *fate = SramFate::Overwritten;
            }
        }
        let mut v = v;
        for &(bit, value) in &self.stuck {
            if (bit / 64) as usize == idx {
                let m = 1u64 << (bit % 64);
                if value {
                    v |= m;
                } else {
                    v &= !m;
                }
            }
        }
        self.regs[idx] = v;
        Some(())
    }

    /// Internal (non-monitored) peek used by the engine.
    pub fn peek(&self, idx: usize) -> u64 {
        self.regs[idx]
    }

    /// Internal set used by the engine (status updates).
    pub fn poke(&mut self, idx: usize, v: u64) {
        self.regs[idx] = v;
    }

    pub fn bit_len(&self) -> u64 {
        self.regs.len() as u64 * 64
    }

    pub fn flip_bit(&mut self, bit: u64) -> SramFate {
        let idx = (bit / 64) as usize;
        self.regs[idx] ^= 1 << (bit % 64);
        self.armed = Some((idx, SramFate::Pending));
        if let Some(s) = self.shadow.get_mut(idx) {
            *s |= 1 << (bit % 64);
        }
        SramFate::Pending
    }

    pub fn set_stuck(&mut self, bit: u64, value: bool) {
        self.stuck.push((bit, value));
        let idx = (bit / 64) as usize;
        let m = 1u64 << (bit % 64);
        if value {
            self.regs[idx] |= m;
        } else {
            self.regs[idx] &= !m;
        }
        self.armed = Some((idx, SramFate::Pending));
        if let Some(s) = self.shadow.get_mut(idx) {
            *s |= m;
        }
    }

    pub fn fate(&self) -> Option<SramFate> {
        self.armed.map(|(_, f)| f)
    }

    /// Restore from `pristine` wholesale (the register block is tiny), for
    /// the zero-copy campaign reset. Returns state bytes copied.
    pub fn reset_from(&mut self, pristine: &Mmr) -> u64 {
        self.regs.clone_from(&pristine.regs);
        self.stuck.clone_from(&pristine.stuck);
        self.armed = pristine.armed;
        if pristine.shadow.is_empty() {
            self.shadow.clear();
        } else {
            self.shadow.clone_from(&pristine.shadow);
        }
        self.regs.len() as u64 * 8 + 16
    }

    /// Functional-state equality for the convergence exit: the register
    /// values steer future behaviour; armed fate, the stuck list and the
    /// taint shadow are observational.
    pub fn state_eq(&self, pristine: &Mmr) -> bool {
        self.regs == pristine.regs
    }

    /// True when no register carries taint (or the plane is off).
    pub fn taint_quiescent(&self) -> bool {
        self.shadow.iter().all(|&t| t == 0)
    }

    // ---- marvel-taint shadow plane ----

    /// Allocate the shadow plane (call before arming; enabling afterwards
    /// conservatively taints the whole armed register).
    pub fn enable_taint(&mut self) {
        if self.shadow.is_empty() {
            self.shadow.resize(self.regs.len(), 0);
        }
        if let Some((idx, _)) = self.armed {
            self.shadow[idx] = !0;
        }
        for &(bit, _) in &self.stuck {
            self.shadow[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Taint mask of a register (0 when tracking is off).
    pub fn taint_of(&self, idx: usize) -> u64 {
        self.shadow.get(idx).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_and_bounds() {
        let mut m = Mmr::new(4);
        assert_eq!(m.len(), 6);
        m.write(MMR_DATA0, 0x1234).unwrap();
        assert_eq!(m.read(MMR_DATA0), Some(0x1234));
        assert!(m.write(6, 0).is_none());
        assert!(m.read(99).is_none());
    }

    #[test]
    fn flips_and_fate() {
        let mut m = Mmr::new(1);
        m.write(MMR_DATA0, 0).unwrap();
        m.flip_bit((MMR_DATA0 as u64) * 64 + 5);
        assert_eq!(m.peek(MMR_DATA0), 32);
        m.read(MMR_DATA0).unwrap();
        assert_eq!(m.fate(), Some(SramFate::Read));
    }

    #[test]
    fn stuck_applies_on_write() {
        let mut m = Mmr::new(1);
        m.set_stuck((MMR_DATA0 as u64) * 64, true);
        m.write(MMR_DATA0, 0).unwrap();
        assert_eq!(m.peek(MMR_DATA0) & 1, 1);
    }
}
