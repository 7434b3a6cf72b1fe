//! Dirty-state journal used by the zero-copy campaign reset path.
//!
//! A [`DirtyMap`] records which elements of an indexed structure (registers,
//! cache sets, RAM pages, …) were mutated during a fault-injection run. The
//! campaign worker then restores *only* those elements from the shared
//! pristine checkpoint instead of deep-cloning the whole `System` per run.
//!
//! Soundness contract: every mutation of journaled state must call
//! [`DirtyMap::mark`] (or [`DirtyMap::mark_all`] for bulk invalidations)
//! before or at the mutation. Over-marking is harmless — resetting a clean
//! element is a no-op copy; under-marking silently corrupts later runs, which
//! the clone-vs-dirty differential tests exist to catch.

/// Set of dirty indices with O(1) mark and O(dirty) drain.
#[derive(Debug, Clone, Default)]
pub struct DirtyMap {
    bits: Vec<bool>,
    touched: Vec<u32>,
    saturated: bool,
}

/// A captured mark set, detached from any journal. Ladder rungs store one
/// per golden segment (the pages/sets/registers the fault-free run dirtied
/// between two consecutive rungs); at a rung crossing the campaign merges it
/// back into the live journal so the convergence compare also covers
/// locations only the *golden* run wrote.
#[derive(Debug, Clone, Default)]
pub struct DirtyMarks {
    saturated: bool,
    touched: Vec<u32>,
}

impl DirtyMarks {
    /// True when the capture recorded no dirty element.
    pub fn is_empty(&self) -> bool {
        !self.saturated && self.touched.is_empty()
    }

    /// Fold `other` into this capture: the union of both mark sets (a
    /// ladder rung taking over the segment of a rung dropped below it).
    pub fn absorb(&mut self, other: &DirtyMarks) {
        if self.saturated || other.saturated {
            self.saturated = true;
            self.touched.clear();
        } else if !other.touched.is_empty() {
            self.touched.extend_from_slice(&other.touched);
            self.touched.sort_unstable();
            self.touched.dedup();
        }
    }

    /// Visit every marked index of a structure with `len` elements.
    pub fn for_each(&self, len: usize, mut f: impl FnMut(usize)) {
        if self.saturated {
            (0..len).for_each(f);
        } else {
            self.touched.iter().for_each(|&i| f(i as usize));
        }
    }
}

impl DirtyMap {
    /// Journal for a structure with `len` elements, initially clean.
    pub fn new(len: usize) -> Self {
        DirtyMap { bits: vec![false; len], touched: Vec::new(), saturated: false }
    }

    /// Number of journaled elements.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when no element has been marked.
    pub fn is_empty(&self) -> bool {
        !self.saturated && self.touched.is_empty()
    }

    /// Mark element `i` dirty.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        if self.saturated {
            return;
        }
        if let Some(b) = self.bits.get_mut(i) {
            if !*b {
                *b = true;
                self.touched.push(i as u32);
            }
        }
    }

    /// Mark every element dirty (bulk invalidation); `drain` then does a
    /// full sweep instead of iterating individual indices.
    pub fn mark_all(&mut self) {
        self.saturated = true;
    }

    /// Visit every dirty index *without* clearing the journal. The
    /// convergence compare walks the marks mid-run; they must survive for
    /// the eventual `reset_from` drain.
    pub fn peek(&self, mut f: impl FnMut(usize)) {
        if self.saturated {
            for i in 0..self.bits.len() {
                f(i);
            }
        } else {
            for &i in &self.touched {
                f(i as usize);
            }
        }
    }

    /// Drain the journal into a detached [`DirtyMarks`] capture, leaving
    /// the map clean (ladder construction: per-segment golden mark sets).
    pub fn take_marks(&mut self) -> DirtyMarks {
        let m = DirtyMarks { saturated: self.saturated, touched: std::mem::take(&mut self.touched) };
        if self.saturated {
            self.bits.iter_mut().for_each(|b| *b = false);
            self.saturated = false;
        } else {
            for &i in &m.touched {
                self.bits[i as usize] = false;
            }
        }
        m
    }

    /// Fold a captured mark set back into the journal (rung-crossing merge).
    /// Over-marking is harmless, per the module's soundness contract.
    pub fn merge(&mut self, m: &DirtyMarks) {
        if m.saturated {
            self.mark_all();
        } else {
            for &i in &m.touched {
                self.mark(i as usize);
            }
        }
    }

    /// Visit every dirty index, clearing the journal. After `drain` the map
    /// is clean again and ready for the next run.
    pub fn drain(&mut self, mut f: impl FnMut(usize)) {
        if self.saturated {
            for i in 0..self.bits.len() {
                f(i);
            }
            self.bits.iter_mut().for_each(|b| *b = false);
            self.touched.clear();
            self.saturated = false;
        } else {
            for &i in &self.touched {
                self.bits[i as usize] = false;
                f(i as usize);
            }
            self.touched.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_dedup_and_drain_clears() {
        let mut d = DirtyMap::new(8);
        d.mark(3);
        d.mark(3);
        d.mark(5);
        let mut seen = Vec::new();
        d.drain(|i| seen.push(i));
        assert_eq!(seen, vec![3, 5]);
        assert!(d.is_empty());
        d.mark(3);
        let mut seen2 = Vec::new();
        d.drain(|i| seen2.push(i));
        assert_eq!(seen2, vec![3]);
    }

    #[test]
    fn saturation_full_sweeps() {
        let mut d = DirtyMap::new(4);
        d.mark(1);
        d.mark_all();
        d.mark(2); // no-op once saturated
        let mut seen = Vec::new();
        d.drain(|i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(d.is_empty());
        // Journal usable again after a saturated drain.
        d.mark(2);
        let mut seen2 = Vec::new();
        d.drain(|i| seen2.push(i));
        assert_eq!(seen2, vec![2]);
    }

    #[test]
    fn peek_preserves_marks() {
        let mut d = DirtyMap::new(8);
        d.mark(2);
        d.mark(6);
        let mut seen = Vec::new();
        d.peek(|i| seen.push(i));
        assert_eq!(seen, vec![2, 6]);
        let mut drained = Vec::new();
        d.drain(|i| drained.push(i));
        assert_eq!(drained, vec![2, 6]);
    }

    #[test]
    fn take_marks_round_trips_through_merge() {
        let mut d = DirtyMap::new(8);
        d.mark(1);
        d.mark(4);
        let m = d.take_marks();
        assert!(d.is_empty());
        assert!(!m.is_empty());
        d.mark(4); // overlap dedups on merge
        d.merge(&m);
        let mut seen = Vec::new();
        d.drain(|i| seen.push(i));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 4]);
        // Saturated captures merge as saturation.
        let mut s = DirtyMap::new(4);
        s.mark_all();
        let sm = s.take_marks();
        assert!(s.is_empty());
        d.merge(&sm);
        let mut all = Vec::new();
        d.drain(|i| all.push(i));
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn absorb_is_the_union_of_captures() {
        let capture = |marks: &[usize]| {
            let mut d = DirtyMap::new(8);
            marks.iter().for_each(|&i| d.mark(i));
            d.take_marks()
        };
        let seen = |m: &DirtyMarks| {
            let mut v = Vec::new();
            m.for_each(8, |i| v.push(i));
            v
        };
        let mut m = capture(&[5, 1]);
        m.absorb(&capture(&[1, 3]));
        assert_eq!(seen(&m), vec![1, 3, 5]);
        let mut s = DirtyMap::new(8);
        s.mark_all();
        m.absorb(&s.take_marks());
        assert_eq!(seen(&m), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range_mark_ignored() {
        let mut d = DirtyMap::new(2);
        d.mark(7);
        assert!(d.is_empty());
    }
}
