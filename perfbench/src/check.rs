//! Correctness checks on a campaign's records: the oracle audit and the
//! simulated-statistics fingerprint.

use marvel_core::{FaultEffect, HvfEffect, RunRecord};

/// The record fields the differential suites pin. `converged`, forensics
/// and attribution are not among them: the convergence exit legitimately
/// differs between the fast path and the oracle.
pub fn same_record(a: &RunRecord, b: &RunRecord) -> bool {
    a.effect == b.effect
        && a.hvf == b.hvf
        && a.trap == b.trap
        && a.early_terminated == b.early_terminated
        && a.cycles == b.cycles
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `k` distinct mask indices out of `n`, chosen by `seed`, ascending.
pub fn audit_sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut state = seed;
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let i = (splitmix(&mut state) % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

/// Outcome of auditing one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Audit {
    /// Masks drive handed back no record for.
    pub missing: usize,
    /// Sampled records compared against the oracle.
    pub checked: usize,
    /// Sampled records that differ from the oracle's.
    pub mismatched: usize,
}

impl Audit {
    pub fn failed(&self) -> usize {
        self.missing + self.mismatched
    }

    pub fn add(&mut self, o: Audit) {
        self.missing += o.missing;
        self.checked += o.checked;
        self.mismatched += o.mismatched;
    }
}

/// Compare `records` at `sample` against `oracle` (the oracle's records
/// for the same indices, in order); count missing records over all masks.
pub fn audit(records: &[Option<RunRecord>], sample: &[usize], oracle: &[RunRecord]) -> Audit {
    assert_eq!(sample.len(), oracle.len(), "one oracle record per sampled mask");
    let mut a = Audit { missing: records.iter().filter(|r| r.is_none()).count(), ..Audit::default() };
    for (&i, want) in sample.iter().zip(oracle) {
        if let Some(got) = &records[i] {
            a.checked += 1;
            if !same_record(got, want) {
                a.mismatched += 1;
            }
        }
    }
    a
}

/// Simulated statistics of a set of campaigns: identical across commits
/// that change only simulator speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub golden_cycles: u64,
    pub runs: u64,
    pub masked: u64,
    pub sdc: u64,
    pub crash: u64,
    pub early_terminated: u64,
    /// FNV-1a 64 over the pinned record fields, campaigns in order, each
    /// campaign's records in mask order.
    pub digest: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            golden_cycles: 0,
            runs: 0,
            masked: 0,
            sdc: 0,
            crash: 0,
            early_terminated: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fingerprint {
    fn hash(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= b as u64;
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in one campaign. A missing record hashes as a marker byte.
    pub fn add_campaign(&mut self, golden_cycles: u64, records: &[Option<RunRecord>]) {
        self.golden_cycles += golden_cycles;
        self.hash(&golden_cycles.to_le_bytes());
        for r in records {
            let Some(r) = r else {
                self.hash(&[0xff]);
                continue;
            };
            self.runs += 1;
            match r.effect {
                FaultEffect::Masked => self.masked += 1,
                FaultEffect::Sdc => self.sdc += 1,
                FaultEffect::Crash => self.crash += 1,
            }
            self.early_terminated += r.early_terminated as u64;
            let effect = match r.effect {
                FaultEffect::Masked => 0u8,
                FaultEffect::Sdc => 1,
                FaultEffect::Crash => 2,
            };
            let hvf = match r.hvf {
                None => 0u8,
                Some(HvfEffect::Masked) => 1,
                Some(HvfEffect::Corruption) => 2,
            };
            self.hash(&[effect, hvf, r.early_terminated as u8]);
            self.hash(r.trap.unwrap_or("").as_bytes());
            self.hash(&[0]);
            self.hash(&r.cycles.to_le_bytes());
        }
    }

    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(effect: FaultEffect, cycles: u64) -> RunRecord {
        RunRecord {
            effect,
            hvf: None,
            trap: None,
            early_terminated: false,
            converged: false,
            cycles,
            forensics: None,
            attribution: None,
        }
    }

    #[test]
    fn sample_is_distinct_sorted_and_seeded() {
        let s = audit_sample(10, 4, 7);
        assert_eq!(s.len(), 4);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s, audit_sample(10, 4, 7));
        assert_eq!(audit_sample(3, 9, 1), vec![0, 1, 2]);
    }

    #[test]
    fn audit_counts_missing_and_mismatched() {
        let records = vec![Some(rec(FaultEffect::Masked, 5)), None, Some(rec(FaultEffect::Sdc, 9))];
        let oracle = vec![rec(FaultEffect::Masked, 5), rec(FaultEffect::Crash, 9)];
        let a = audit(&records, &[0, 2], &oracle);
        assert_eq!(a, Audit { missing: 1, checked: 2, mismatched: 1 });
        assert_eq!(a.failed(), 2);
    }

    #[test]
    fn converged_is_not_compared_but_cycles_are() {
        let a = rec(FaultEffect::Masked, 5);
        let mut b = a.clone();
        b.converged = true;
        assert!(same_record(&a, &b));
        b.cycles += 1;
        assert!(!same_record(&a, &b));
    }

    #[test]
    fn fingerprint_tracks_order_and_counts() {
        let (x, y) = (Some(rec(FaultEffect::Masked, 1)), Some(rec(FaultEffect::Sdc, 2)));
        let mut f = Fingerprint::default();
        f.add_campaign(100, &[x.clone(), y.clone()]);
        let mut g = Fingerprint::default();
        g.add_campaign(100, &[y, x]);
        assert_eq!((f.runs, f.masked, f.sdc, f.golden_cycles), (2, 1, 1, 100));
        assert_ne!(f.digest, g.digest);
    }
}
