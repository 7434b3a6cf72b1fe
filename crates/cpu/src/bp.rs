//! Branch prediction: bimodal 2-bit counters plus a return-address stack.
//!
//! Direction prediction drives wrong-path fetch, one of the
//! microarchitectural masking mechanisms (faults consumed only by squashed
//! wrong-path instructions are benign).

/// Bimodal predictor + RAS.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    ras: Vec<u64>,
    ras_max: usize,
    pub lookups: u64,
    pub mispredicts: u64,
}

impl BranchPredictor {
    pub fn new(entries: usize, ras_max: usize) -> Self {
        assert!(entries.is_power_of_two());
        BranchPredictor {
            counters: vec![2; entries], // weakly taken
            ras: Vec::new(),
            ras_max,
            lookups: 0,
            mispredicts: 0,
        }
    }

    #[inline]
    fn idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Predict the direction of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.lookups += 1;
        self.counters[self.idx(pc)] >= 2
    }

    /// Train with the resolved outcome.
    pub fn train(&mut self, pc: u64, taken: bool, mispredicted: bool) {
        if mispredicted {
            self.mispredicts += 1;
        }
        let i = self.idx(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Push a return address (on a predicted call).
    pub fn ras_push(&mut self, addr: u64) {
        if self.ras.len() == self.ras_max {
            self.ras.remove(0);
        }
        self.ras.push(addr);
    }

    /// Pop the predicted return target.
    pub fn ras_pop(&mut self) -> Option<u64> {
        self.ras.pop()
    }

    /// Functional-state equality for the convergence exit: counters and the
    /// RAS steer future fetch, so both must match; the lookup/mispredict
    /// tallies are observational and excluded.
    pub fn converged_with(&self, pristine: &BranchPredictor) -> bool {
        self.counters == pristine.counters && self.ras == pristine.ras
    }

    /// Bytes the counters and the return-address stack hold.
    pub fn held_bytes(&self) -> u64 {
        (self.counters.len() + self.ras.len() * 8) as u64
    }

    /// Restore from `pristine`, reusing this predictor's allocations.
    /// Returns state bytes copied (zero-copy campaign reset accounting).
    pub fn reset_from(&mut self, pristine: &BranchPredictor) -> u64 {
        self.counters.clone_from(&pristine.counters);
        self.ras.clone_from(&pristine.ras);
        self.ras_max = pristine.ras_max;
        self.lookups = pristine.lookups;
        self.mispredicts = pristine.mispredicts;
        (self.counters.len() + self.ras.len() * 8 + 16) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_learn_direction() {
        let mut bp = BranchPredictor::new(16, 4);
        let pc = 0x4000_0040;
        for _ in 0..4 {
            bp.train(pc, false, false);
        }
        assert!(!bp.predict(pc));
        for _ in 0..4 {
            bp.train(pc, true, false);
        }
        assert!(bp.predict(pc));
    }

    #[test]
    fn ras_lifo_and_bounded() {
        let mut bp = BranchPredictor::new(16, 2);
        bp.ras_push(1);
        bp.ras_push(2);
        bp.ras_push(3); // evicts 1
        assert_eq!(bp.ras_pop(), Some(3));
        assert_eq!(bp.ras_pop(), Some(2));
        assert_eq!(bp.ras_pop(), None);
    }

    #[test]
    fn mispredict_counter() {
        let mut bp = BranchPredictor::new(16, 4);
        bp.train(0, true, true);
        bp.train(0, true, false);
        assert_eq!(bp.mispredicts, 1);
    }
}
