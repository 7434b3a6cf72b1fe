// The vendored proptest! macro expands by token-munching, so the test
// body here is a one-line trampoline into a plain `check_*` function —
// the assertion logic lives outside the macro where it costs nothing.
#![recursion_limit = "1024"]

//! Fuzz oracle for lane ALU diff propagation: `alu_diff` must agree with
//! 64 independent scalar evaluations, lane for lane, on masks of every
//! density from 1 to 64 lanes.

use gem5_marvel::cpu::lane::alu_diff;
use gem5_marvel::isa::{AluOp, Isa};
use proptest::prelude::*;

const ISAS: [Isa; 3] = [Isa::Arm, Isa::X86, Isa::RiscV];

fn lanes64() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 64)
}

fn arr(v: &[u64]) -> [u64; 64] {
    let mut a = [0u64; 64];
    a.copy_from_slice(v);
    a
}

/// A mask of exactly `density` lanes, scattered: lanes `start + k·step`
/// (mod 64) for an odd `step`, which visits all 64 lanes before repeating.
fn scattered_mask(density: u32, start: u32, step: u32) -> u64 {
    (0..density).fold(0, |m, k| m | 1 << ((start + k * step) % 64))
}

/// Full ALU diff propagation vs the scalar oracle: for every masked lane,
/// applying the lane's operand diffs and evaluating scalar-ly must land
/// exactly on `golden ^ diff[lane]` — or the lane must be flagged for
/// forking where the scalar evaluation traps. Unmasked lanes carry no
/// diff by construction. `shift_const` clears the shift-amount diffs, so
/// shifts also meet the oracle with every lane agreeing on the amount.
#[allow(clippy::too_many_arguments)]
fn check_alu_diff(
    op: AluOp,
    isa: Isa,
    a: u64,
    b: u64,
    dav: &[u64],
    dbv: &[u64],
    mask: u64,
    shift_const: bool,
) {
    let (mut da, mut db) = (arr(dav), arr(dbv));
    for l in 0..64 {
        if mask & (1 << l) == 0 {
            da[l] = 0;
            db[l] = 0;
        } else if shift_const {
            db[l] = 0;
        }
    }
    // No golden result to diff against (x86 divide-by-zero in the golden
    // operands themselves): nothing to check.
    let Some(golden) = op.eval(a, b, isa) else { return };

    let d = alu_diff(op, isa, a, b, golden, &da, &db, mask);
    for l in 0..64 {
        if mask & (1 << l) == 0 {
            assert_eq!(d.diff[l], 0, "unmasked lane {l} must carry no diff");
            assert_eq!(d.fork >> l & 1, 0, "unmasked lane {l} must not fork");
            continue;
        }
        match op.eval(a ^ da[l], b ^ db[l], isa) {
            Some(r) => {
                assert_eq!(d.fork >> l & 1, 0, "lane {l} forked spuriously");
                assert_eq!(
                    golden ^ d.diff[l],
                    r,
                    "lane {l}: {op:?}/{isa:?} diff disagrees with scalar eval"
                );
            }
            None => assert_eq!(d.fork >> l & 1, 1, "lane {l}: scalar eval traps, lane must fork"),
        }
    }
}

proptest! {
    #[test]
    fn alu_diff_matches_64_scalar_evals(
        op_i in 0usize..AluOp::ALL.len(),
        isa_i in 0usize..ISAS.len(),
        a in any::<u64>(),
        b in any::<u64>(),
        dav in lanes64(),
        dbv in lanes64(),
        density in 1u32..=64,
        start in 0u32..64,
        half_step in 0u32..32,
        shift_const in any::<bool>(),
    ) {
        let mask = scattered_mask(density, start, 2 * half_step + 1);
        check_alu_diff(AluOp::ALL[op_i], ISAS[isa_i], a, b, &dav, &dbv, mask, shift_const);
    }
}
