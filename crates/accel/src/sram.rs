//! On-chip SRAM arrays: scratchpad memories (SPMs) and register banks.
//!
//! These are the paper's DSA injection targets (Table IV). Register banks
//! behave like SPMs but with a delta delay between write and read
//! availability, modelled as one extra cycle of read latency.

/// Fate of the armed (injected) bit — mirrors the CPU-side contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SramFate {
    #[default]
    Pending,
    Read,
    Overwritten,
}

/// Kind of on-chip memory (affects latency and the Table IV "Memory Type"
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SramKind {
    Spm,
    RegBank,
}

impl SramKind {
    pub fn name(self) -> &'static str {
        match self {
            SramKind::Spm => "SPM",
            SramKind::RegBank => "RegBank",
        }
    }

    /// Read latency in cycles (RegBanks pay the delta delay).
    pub fn read_latency(self) -> u32 {
        match self {
            SramKind::Spm => 1,
            SramKind::RegBank => 2,
        }
    }
}

/// A named, fault-injectable on-chip memory.
#[derive(Debug, Clone)]
pub struct Sram {
    pub name: String,
    pub kind: SramKind,
    bytes: Vec<u8>,
    stuck: Vec<(u64, bool)>,
    armed: Option<(usize, SramFate)>,
    /// Parallel access ports (per-cycle access limit).
    pub ports: usize,
    /// Access tallies (scalar reads/writes plus DMA fills/drains).
    pub reads: u64,
    pub writes: u64,
    /// marvel-taint per-byte shadow (empty = tracking off). Taint
    /// accessors never touch `armed`/`reads`/`writes`, so enabling the
    /// plane cannot perturb fault fates or timing.
    shadow: Vec<u8>,
    /// Dirty byte watermark `[dirty_lo, dirty_hi)` covering every data
    /// mutation since the last [`reset_from`](Self::reset_from). Always
    /// maintained (two compares per write); empty when `lo > hi`.
    dirty_lo: usize,
    dirty_hi: usize,
}

impl Sram {
    pub fn new(name: &str, kind: SramKind, size: usize, ports: usize) -> Self {
        Sram {
            name: name.to_string(),
            kind,
            bytes: vec![0; size],
            stuck: Vec::new(),
            armed: None,
            ports,
            reads: 0,
            writes: 0,
            shadow: Vec::new(),
            dirty_lo: usize::MAX,
            dirty_hi: 0,
        }
    }

    #[inline]
    fn mark_range(&mut self, off: usize, n: usize) {
        self.dirty_lo = self.dirty_lo.min(off);
        self.dirty_hi = self.dirty_hi.max(off + n);
    }

    /// Mark every byte dirty, so the next [`reset_from`](Self::reset_from)
    /// copies the whole array.
    pub fn mark_all(&mut self) {
        self.mark_range(0, self.bytes.len());
    }

    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Read `n ≤ 8` bytes at `off`.
    ///
    /// Returns `None` when the access runs out of bounds (the accelerator
    /// raises an error — a Crash in fault-effect terms).
    pub fn read(&mut self, off: u64, n: usize) -> Option<u64> {
        let off = off as usize;
        if off + n > self.bytes.len() {
            return None;
        }
        self.reads += 1;
        if let Some((b, fate)) = &mut self.armed {
            if *fate == SramFate::Pending && *b >= off && *b < off + n {
                *fate = SramFate::Read;
            }
        }
        let mut out = [0u8; 8];
        out[..n].copy_from_slice(&self.bytes[off..off + n]);
        Some(u64::from_le_bytes(out))
    }

    /// The observable side effects of a [`read`](Self::read) without the
    /// data: access tally and armed-bit fate. The replay engine's
    /// memoized loads use this — the value comes from the golden trace,
    /// but early-termination polls and forensics still see the access.
    /// Returns `false` when the access would be out of bounds.
    pub fn touch_read(&mut self, off: u64, n: usize) -> bool {
        let off = off as usize;
        if off + n > self.bytes.len() {
            return false;
        }
        self.reads += 1;
        if let Some((b, fate)) = &mut self.armed {
            if *fate == SramFate::Pending && *b >= off && *b < off + n {
                *fate = SramFate::Read;
            }
        }
        true
    }

    /// Write `n ≤ 8` bytes at `off`.
    pub fn write(&mut self, off: u64, n: usize, val: u64) -> Option<()> {
        let off = off as usize;
        if off + n > self.bytes.len() {
            return None;
        }
        self.writes += 1;
        if let Some((b, fate)) = &mut self.armed {
            if *fate == SramFate::Pending && *b >= off && *b < off + n {
                *fate = SramFate::Overwritten;
            }
        }
        self.mark_range(off, n);
        self.bytes[off..off + n].copy_from_slice(&val.to_le_bytes()[..n]);
        self.apply_stuck_range(off, n);
        Some(())
    }

    /// Bulk copy in (DMA fill).
    pub fn fill(&mut self, off: usize, data: &[u8]) -> Option<()> {
        if off + data.len() > self.bytes.len() {
            return None;
        }
        self.writes += 1;
        if let Some((b, fate)) = &mut self.armed {
            if *fate == SramFate::Pending && *b >= off && *b < off + data.len() {
                *fate = SramFate::Overwritten;
            }
        }
        self.mark_range(off, data.len());
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.apply_stuck_range(off, data.len());
        Some(())
    }

    /// Bulk copy out (DMA drain): the bytes to copy. Marks the range as
    /// read.
    pub fn drain(&mut self, off: usize, len: usize) -> Option<&[u8]> {
        if off + len > self.bytes.len() {
            return None;
        }
        self.reads += 1;
        if let Some((b, fate)) = &mut self.armed {
            if *fate == SramFate::Pending && *b >= off && *b < off + len {
                *fate = SramFate::Read;
            }
        }
        Some(&self.bytes[off..off + len])
    }

    /// Raw contents (tests/verification).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    // ---- fault injection ----

    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    pub fn flip_bit(&mut self, bit: u64) -> SramFate {
        let byte = (bit / 8) as usize;
        self.mark_range(byte, 1);
        self.bytes[byte] ^= 1 << (bit % 8);
        self.armed = Some((byte, SramFate::Pending));
        if let Some(s) = self.shadow.get_mut(byte) {
            *s |= 1 << (bit % 8);
        }
        SramFate::Pending
    }

    pub fn set_stuck(&mut self, bit: u64, value: bool) {
        self.stuck.push((bit, value));
        let byte = (bit / 8) as usize;
        self.mark_range(byte, 1);
        let mask = 1u8 << (bit % 8);
        if value {
            self.bytes[byte] |= mask;
        } else {
            self.bytes[byte] &= !mask;
        }
        self.armed = Some((byte, SramFate::Pending));
        if let Some(s) = self.shadow.get_mut(byte) {
            *s |= mask;
        }
    }

    pub fn fate(&self) -> Option<SramFate> {
        self.armed.map(|(_, f)| f)
    }

    // ---- zero-copy campaign reset ----

    /// Restore this SRAM to `pristine` by copying only the watermarked
    /// dirty byte range. Returns state bytes copied. Per-run fault state
    /// (stuck list, armed fate, taint shadow) is restored wholesale.
    pub fn reset_from(&mut self, pristine: &Sram) -> u64 {
        debug_assert_eq!(self.bytes.len(), pristine.bytes.len());
        let mut bytes = 0u64;
        if self.dirty_lo < self.dirty_hi {
            let lo = self.dirty_lo;
            let hi = self.dirty_hi.min(self.bytes.len());
            self.bytes[lo..hi].copy_from_slice(&pristine.bytes[lo..hi]);
            bytes += (hi - lo) as u64;
        }
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
        self.stuck.clone_from(&pristine.stuck);
        self.armed = pristine.armed;
        self.reads = pristine.reads;
        self.writes = pristine.writes;
        if pristine.shadow.is_empty() {
            self.shadow.clear();
        } else {
            self.shadow.clone_from(&pristine.shadow);
        }
        bytes + 24 // counters + armed state
    }

    /// Functional-state equality for the convergence exit: only the data
    /// bytes steer future behaviour. Access tallies, armed fate, the stuck
    /// list and the taint shadow are observational (the shadow is checked
    /// separately via [`taint_quiescent`](Self::taint_quiescent)).
    pub fn state_eq(&self, pristine: &Sram) -> bool {
        self.bytes == pristine.bytes
    }

    /// True when no shadow byte is set (or the plane is off).
    pub fn taint_quiescent(&self) -> bool {
        self.shadow.iter().all(|&b| b == 0)
    }

    // ---- marvel-taint shadow plane ----

    /// Allocate the per-byte shadow (into the capacity a
    /// [`reset_from`](Self::reset_from) kept). Call before fault arming;
    /// enabling after arming conservatively taints the whole armed byte.
    pub fn enable_taint(&mut self) {
        if self.shadow.is_empty() {
            self.shadow.resize(self.bytes.len(), 0);
        }
        if let Some((byte, _)) = self.armed {
            self.shadow[byte] = 0xFF;
        }
        for &(bit, _) in &self.stuck {
            self.shadow[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    #[inline]
    pub fn taint_on(&self) -> bool {
        !self.shadow.is_empty()
    }

    /// Shadow counterpart of [`read`](Self::read) (LE mask; 0 when off).
    pub fn taint_read(&self, off: u64, n: usize) -> u64 {
        let off = off as usize;
        if self.shadow.is_empty() || off + n > self.shadow.len() {
            return 0;
        }
        let mut out = [0u8; 8];
        out[..n].copy_from_slice(&self.shadow[off..off + n]);
        u64::from_le_bytes(out)
    }

    /// Shadow counterpart of [`write`](Self::write): replaces the range's
    /// taint (clean data washes taint out), re-asserting stuck-at bits.
    pub fn taint_write(&mut self, off: u64, n: usize, mask: u64) {
        let off = off as usize;
        if self.shadow.is_empty() || off + n > self.shadow.len() {
            return;
        }
        self.shadow[off..off + n].copy_from_slice(&mask.to_le_bytes()[..n]);
        self.reapply_stuck_taint(off, n);
    }

    /// Shadow counterpart of [`fill`](Self::fill) (DMA in): `len` shadow
    /// bytes from `shadow`, or clean ones when the source has no shadow.
    pub fn taint_fill(&mut self, off: usize, len: usize, shadow: Option<&[u8]>) {
        let Some(dst) = self.shadow.get_mut(off..off + len) else { return };
        match shadow {
            Some(src) => dst.copy_from_slice(src),
            None => dst.fill(0),
        }
        self.reapply_stuck_taint(off, len);
    }

    /// Shadow counterpart of [`drain`](Self::drain) (DMA out).
    pub fn taint_drain(&self, off: usize, len: usize) -> Option<&[u8]> {
        self.shadow.get(off..off + len)
    }

    /// Any tainted byte in `[off, off+len)`?
    pub fn taint_any(&self, off: usize, len: usize) -> bool {
        if self.shadow.is_empty() || off + len > self.shadow.len() {
            return false;
        }
        self.shadow[off..off + len].iter().any(|&b| b != 0)
    }

    fn reapply_stuck_taint(&mut self, off: usize, n: usize) {
        for i in 0..self.stuck.len() {
            let (bit, _) = self.stuck[i];
            let byte = (bit / 8) as usize;
            if byte >= off && byte < off + n {
                self.shadow[byte] |= 1 << (bit % 8);
            }
        }
    }

    fn apply_stuck_range(&mut self, off: usize, n: usize) {
        for &(bit, value) in &self.stuck {
            let byte = (bit / 8) as usize;
            if byte >= off && byte < off + n {
                let mask = 1u8 << (bit % 8);
                if value {
                    self.bytes[byte] |= mask;
                } else {
                    self.bytes[byte] &= !mask;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut s = Sram::new("t", SramKind::Spm, 64, 2);
        s.write(8, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(s.read(8, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(s.read(8, 2).unwrap(), 0x7788);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut s = Sram::new("t", SramKind::Spm, 16, 1);
        assert!(s.read(12, 8).is_none());
        assert!(s.write(16, 1, 0).is_none());
        assert!(s.fill(10, &[0; 8]).is_none());
    }

    #[test]
    fn flip_and_fate_tracking() {
        let mut s = Sram::new("t", SramKind::Spm, 16, 1);
        s.flip_bit(9); // byte 1, bit 1
        assert_eq!(s.bytes()[1], 2);
        assert_eq!(s.fate(), Some(SramFate::Pending));
        s.read(0, 8);
        assert_eq!(s.fate(), Some(SramFate::Read));
    }

    #[test]
    fn overwrite_masks_fault() {
        let mut s = Sram::new("t", SramKind::Spm, 16, 1);
        s.flip_bit(0);
        s.write(0, 1, 0xAA);
        assert_eq!(s.fate(), Some(SramFate::Overwritten));
    }

    #[test]
    fn dma_fill_drain() {
        let mut s = Sram::new("t", SramKind::RegBank, 16, 1);
        s.fill(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(s.drain(4, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(SramKind::RegBank.read_latency(), 2);
    }

    #[test]
    fn taint_shadow_follows_flip_write_and_dma() {
        let mut s = Sram::new("t", SramKind::Spm, 32, 1);
        assert_eq!(s.taint_read(0, 8), 0); // off: cheap no-op
        s.enable_taint();
        s.flip_bit(8 * 4 + 2); // byte 4, bit 2
        assert_eq!(s.taint_read(4, 1), 0b100);
        assert!(s.taint_any(0, 8));
        // Clean overwrite washes the taint out.
        s.taint_write(4, 1, 0);
        assert!(!s.taint_any(0, 8));
        // DMA shadow roundtrip.
        s.taint_fill(16, 4, Some(&[0xFF, 0, 0xFF, 0]));
        assert_eq!(s.taint_drain(16, 4).unwrap(), vec![0xFF, 0, 0xFF, 0]);
        // Stuck-at taint re-asserts across writes.
        s.set_stuck(8 * 2 + 1, true);
        s.taint_write(2, 1, 0);
        assert_eq!(s.taint_read(2, 1), 0b10);
    }

    #[test]
    fn dirty_reset_restores_watermarked_range() {
        let mut pristine = Sram::new("t", SramKind::Spm, 64, 2);
        pristine.fill(0, &[5u8; 64]).unwrap();
        let mut s = pristine.clone();
        let _ = s.reset_from(&pristine); // flush the construction watermark
        s.write(8, 8, 0xDEAD_BEEF).unwrap();
        s.flip_bit(3);
        s.enable_taint();
        let bytes = s.reset_from(&pristine);
        // Watermark spans byte 0 (flip) through 16 (write end).
        assert!((16..64).contains(&bytes), "bytes {bytes}");
        assert_eq!(s.bytes(), pristine.bytes());
        assert_eq!(s.fate(), pristine.fate());
        assert!(!s.taint_on());
        assert_eq!((s.reads, s.writes), (pristine.reads, pristine.writes));
    }

    #[test]
    fn stuck_bit_reasserts() {
        let mut s = Sram::new("t", SramKind::Spm, 8, 1);
        s.set_stuck(3, true);
        s.write(0, 1, 0);
        assert_eq!(s.read(0, 1).unwrap() & 8, 8);
        s.fill(0, &[0]).unwrap();
        assert_eq!(s.read(0, 1).unwrap() & 8, 8);
    }
}
