//! Two-pass assembly with branch relaxation: lowered items → loadable image.
//!
//! Layout iterates until no conditional branch overflows its ISA's
//! immediate range; overflowing branches are relaxed (monotonically) into
//! an inverted branch over an unconditional jump. Data follows code,
//! aligned; global addresses are resolved afterwards, which is sound
//! because every `AddrOf` materialisation has a fixed, value-independent
//! length.

use crate::lower::{invert_cond, lower, Item, LowerError, Lowered};
use crate::memmap::{RAM_BASE, RAM_SIZE};
use crate::module::Module;
use marvel_isa::{AluOp, AsmInst, Cond, Isa};

/// A fully assembled program image, loadable at [`RAM_BASE`].
#[derive(Debug, Clone)]
pub struct Binary {
    pub isa: Isa,
    /// Code followed by (aligned) data; load at `entry`.
    pub image: Vec<u8>,
    /// Entry point (== [`RAM_BASE`]; the synthesised `_start`).
    pub entry: u64,
    /// Length of the code portion of `image` in bytes: the static code
    /// footprint, the paper's L1I-residency driver.
    pub code_len: usize,
    /// Absolute address of each function (same indexing as the module).
    pub func_addrs: Vec<u64>,
    /// Absolute address of each global (same indexing as the module).
    pub global_addrs: Vec<u64>,
    /// Number of machine instructions emitted.
    pub inst_count: usize,
}

/// Compile a module for an ISA: validate → lower → lay out → encode.
///
/// # Errors
/// Returns [`LowerError`] on validation/encoding failures or if the image
/// exceeds RAM.
pub fn assemble(module: &Module, isa: Isa) -> Result<Binary, LowerError> {
    let lowered = lower(module, isa)?;
    assemble_lowered(module, &lowered)
}

fn branch_len(isa: Isa, cond: Cond, rn: u8, rm: u8) -> usize {
    match isa {
        Isa::X86 => {
            // Jcc = [prefix] opcode modrm disp32.
            let pfx = usize::from(rn >= 8 || rm >= 8);
            let _ = cond;
            pfx + 1 + 1 + 4
        }
        _ => 4,
    }
}

fn jmp_len(isa: Isa) -> usize {
    match isa {
        Isa::X86 => 5,
        _ => 4,
    }
}

fn call_len(isa: Isa) -> usize {
    match isa {
        Isa::X86 => 5,
        _ => 4,
    }
}

fn br_fits(isa: Isa, off: i64) -> bool {
    match isa {
        Isa::X86 => true,
        Isa::RiscV => (-4096..4096).contains(&off),
        Isa::Arm => (-32768..32768).contains(&off),
    }
}

/// Fixed-length materialisation of a 32-bit absolute address.
fn addrof_insts(isa: Isa, rd: u8, addr: u64) -> Vec<AsmInst> {
    debug_assert!(addr < (1 << 31));
    match isa {
        Isa::RiscV => {
            let v = addr as i64;
            let hi = (v + 0x800) >> 12;
            let lo = v - (hi << 12);
            vec![
                AsmInst::Lui { rd, imm20: hi as i32 },
                AsmInst::AluRI { op: AluOp::Add, rd, rn: rd, imm: lo },
            ]
        }
        Isa::Arm => vec![
            AsmInst::MovZ { rd, imm16: addr as u16, hw: 0 },
            AsmInst::MovK { rd, imm16: (addr >> 16) as u16, hw: 1 },
        ],
        Isa::X86 => vec![AsmInst::MovImm64 { rd, imm: addr as i64 }],
    }
}

fn addrof_len(isa: Isa, rd: u8) -> usize {
    // Length is independent of the address value (all addresses < 2^31).
    addrof_insts(isa, rd, 0x4000_0000).iter().map(|i| isa.encoded_len(i).unwrap()).sum()
}

fn assemble_lowered(module: &Module, l: &Lowered) -> Result<Binary, LowerError> {
    let isa = l.isa;
    let n = l.items.len();
    let mut expanded = vec![false; n];

    // --- base sizes (expanded flag adds jmp_len) ---
    let mut base_size = vec![0usize; n];
    for (i, it) in l.items.iter().enumerate() {
        base_size[i] = match it {
            Item::Inst(inst) => isa.encoded_len(inst)?,
            Item::Label(_) => 0,
            Item::Br { cond, rn, rm, .. } => branch_len(isa, *cond, *rn, *rm),
            Item::Jmp { .. } => jmp_len(isa),
            Item::CallF { .. } => call_len(isa),
            Item::AddrOf { rd, .. } => addrof_len(isa, *rd),
        };
    }

    // --- iterative layout with monotone relaxation ---
    let mut addrs = vec![0u64; n + 1];
    let mut label_addr = vec![0u64; l.n_labels as usize];
    loop {
        let mut pc = RAM_BASE;
        for i in 0..n {
            addrs[i] = pc;
            let sz = base_size[i] + if expanded[i] { jmp_len(isa) } else { 0 };
            if let Item::Label(k) = &l.items[i] {
                label_addr[*k as usize] = pc;
            }
            pc += sz as u64;
        }
        addrs[n] = pc;

        let mut changed = false;
        for i in 0..n {
            if let Item::Br { target, .. } = &l.items[i] {
                if !expanded[i] {
                    let off = label_addr[*target as usize] as i64 - addrs[i] as i64;
                    if !br_fits(isa, off) {
                        expanded[i] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let code_len = (addrs[n] - RAM_BASE) as usize;

    // --- data layout ---
    let mut data_cursor = RAM_BASE + ((code_len as u64 + 63) & !63);
    let mut global_addrs = Vec::with_capacity(module.globals.len());
    for g in &module.globals {
        let a = g.align.max(1) as u64;
        data_cursor = (data_cursor + a - 1) & !(a - 1);
        global_addrs.push(data_cursor);
        data_cursor += g.bytes.len() as u64;
    }
    let image_len = (data_cursor - RAM_BASE) as usize;
    if image_len as u64 + 64 * 1024 > RAM_SIZE {
        return Err(LowerError::Validate(format!(
            "image ({image_len} bytes) leaves no room for the stack in RAM"
        )));
    }

    // --- function addresses ---
    let func_addrs: Vec<u64> = l.func_item_starts.iter().map(|&s| addrs[s]).collect();

    // --- encoding ---
    let mut image = vec![0u8; image_len];
    let mut inst_count = 0usize;
    let mut emit = |pc: &mut u64, inst: &AsmInst, image: &mut Vec<u8>| -> Result<(), LowerError> {
        let bytes = isa.encode(inst)?;
        let off = (*pc - RAM_BASE) as usize;
        image[off..off + bytes.len()].copy_from_slice(&bytes);
        *pc += bytes.len() as u64;
        inst_count += 1;
        Ok(())
    };

    for (i, it) in l.items.iter().enumerate() {
        let mut pc = addrs[i];
        match it {
            Item::Inst(inst) => emit(&mut pc, inst, &mut image)?,
            Item::Label(_) => {}
            Item::Br { cond, rn, rm, target } => {
                let taddr = label_addr[*target as usize] as i64;
                if expanded[i] {
                    let blen = branch_len(isa, *cond, *rn, *rm) as i64;
                    let jlen = jmp_len(isa) as i64;
                    let skip = (blen + jlen) as i32;
                    emit(
                        &mut pc,
                        &AsmInst::Branch { cond: invert_cond(*cond), rn: *rn, rm: *rm, offset: skip },
                        &mut image,
                    )?;
                    let joff = (taddr - pc as i64) as i32;
                    emit(&mut pc, &AsmInst::Jmp { offset: joff }, &mut image)?;
                } else {
                    let off = (taddr - pc as i64) as i32;
                    emit(
                        &mut pc,
                        &AsmInst::Branch { cond: *cond, rn: *rn, rm: *rm, offset: off },
                        &mut image,
                    )?;
                }
            }
            Item::Jmp { target } => {
                let off = (label_addr[*target as usize] as i64 - pc as i64) as i32;
                emit(&mut pc, &AsmInst::Jmp { offset: off }, &mut image)?;
            }
            Item::CallF { func } => {
                let off = (func_addrs[*func] as i64 - pc as i64) as i32;
                emit(&mut pc, &AsmInst::Call { offset: off }, &mut image)?;
            }
            Item::AddrOf { rd, global } => {
                for inst in addrof_insts(isa, *rd, global_addrs[*global]) {
                    emit(&mut pc, &inst, &mut image)?;
                }
            }
        }
        // Verify layout agreement.
        debug_assert_eq!(pc, addrs[i + 1], "layout mismatch at item {i}: {it:?}");
    }

    // --- data bytes ---
    for (g, &a) in module.globals.iter().zip(&global_addrs) {
        let off = (a - RAM_BASE) as usize;
        image[off..off + g.bytes.len()].copy_from_slice(&g.bytes);
    }

    Ok(Binary { isa, image, entry: RAM_BASE, code_len, func_addrs, global_addrs, inst_count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::FuncBuilder;
    use marvel_isa::Cond;

    fn mk_loop_module(pad: usize) -> Module {
        // A backward branch over `pad` filler instructions, to force
        // relaxation on RISC-V when pad*4 > 4 KiB.
        let mut m = Module::new();
        let f = m.declare("main", 0);
        let mut b = FuncBuilder::new(0);
        let i = b.li(0);
        let top = b.new_label();
        b.bind(top);
        for _ in 0..pad {
            b.nop();
        }
        let nx = b.bin(AluOp::Add, i, 1);
        b.assign(i, nx);
        b.br(Cond::Lt, i, 2, top);
        b.out_byte(i);
        b.halt();
        m.define(f, b.build());
        m
    }

    #[test]
    fn assembles_for_all_isas() {
        let m = mk_loop_module(4);
        for isa in Isa::ALL {
            let b = assemble(&m, isa).unwrap();
            assert_eq!(b.entry, RAM_BASE);
            assert!(b.code_len > 0);
            assert!(b.inst_count > 10);
            assert_eq!(b.func_addrs.len(), 1);
        }
    }

    #[test]
    fn riscv_branch_relaxation_kicks_in() {
        let near = assemble(&mk_loop_module(4), Isa::RiscV).unwrap();
        let far = assemble(&mk_loop_module(1500), Isa::RiscV).unwrap();
        // 1500 nops * 4B = 6 KB > ±4 KiB: the backward branch must have
        // been relaxed, costing exactly one extra instruction on top of
        // the 1496 additional nops.
        assert_eq!(far.inst_count, near.inst_count + 1496 + 1);
        assert!(far.code_len > 6000);
    }

    #[test]
    fn code_is_decodable_from_entry() {
        // Walk the first instructions of the image: they must all decode.
        for isa in Isa::ALL {
            let b = assemble(&mk_loop_module(2), isa).unwrap();
            let mut pc = 0usize;
            let mut n = 0;
            while pc < b.code_len.min(200) {
                let d = isa
                    .decode(&b.image[pc..b.code_len.min(pc + 16)])
                    .unwrap_or_else(|e| panic!("{isa}: undecodable at {pc}: {e:?}"));
                pc += d.len as usize;
                n += 1;
            }
            assert!(n > 5);
        }
    }

    #[test]
    fn globals_are_placed_and_aligned() {
        let mut m = mk_loop_module(2);
        let g1 = m.global("a", vec![1, 2, 3], 1);
        let g2 = m.global_u64("b", &[0xDEAD_BEEF]);
        let b = assemble(&m, Isa::Arm).unwrap();
        assert!(b.global_addrs[g1] >= RAM_BASE + b.code_len as u64);
        assert_eq!(b.global_addrs[g2] % 8, 0);
        let off = (b.global_addrs[g2] - RAM_BASE) as usize;
        assert_eq!(&b.image[off..off + 8], &0xDEAD_BEEFu64.to_le_bytes());
    }

    #[test]
    fn image_too_big_rejected() {
        let mut m = mk_loop_module(2);
        m.global_zeroed("huge", RAM_SIZE as usize, 8);
        assert!(assemble(&m, Isa::RiscV).is_err());
    }
}
