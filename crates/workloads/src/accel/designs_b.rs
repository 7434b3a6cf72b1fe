//! MachSuite designs: MERGESORT, SPMV, STENCIL2D, STENCIL3D.

use crate::util::Lcg;
use marvel_accel::air::{CdfgBuilder, MemRef};
use marvel_accel::{Accelerator, DmaDir, DmaJob, FuConfig, Sram, SramKind};
use marvel_core::DsaHarness;
use marvel_isa::AluOp;

fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect()
}

fn u64s_to_bytes(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Bottom-up merge sort of 1024 u64 keys: MAIN ↔ TEMP ping-pong (faults
/// in TEMP are frequently overwritten by the merge stream — the paper's
/// observation about its lower AVF).
pub fn mergesort(fu: FuConfig) -> DsaHarness {
    const N: u64 = 1024;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let w_head = g.block(1); // width
    let m_head = g.block(2); // width, lo
    let merge = g.block(5); // width, lo, i, j, k
    let pair_latch = g.block(2); // width, lo
    let copy_head = g.block(1); // width
    let copy_body = g.block(2); // width, idx
    let w_latch = g.block(1);
    let done = g.block(0);

    g.select(entry);
    let one = g.konst(1);
    g.jump(w_head, &[one]);

    g.select(w_head);
    let w = g.arg(0);
    let z = g.konst(0);
    g.jump(m_head, &[w, z]);

    // m_head: set up merge of [lo, lo+w) and [lo+w, lo+2w).
    g.select(m_head);
    let w = g.arg(0);
    let lo = g.arg(1);
    let mid = g.alu(AluOp::Add, lo, w);
    g.jump(merge, &[w, lo, lo, mid, lo]);

    // merge block: one output element per execution.
    g.select(merge);
    let w = g.arg(0);
    let lo = g.arg(1);
    let i = g.arg(2);
    let j = g.arg(3);
    let k = g.arg(4);
    let mid0 = g.alu(AluOp::Add, lo, w);
    let nk = g.konst(N);
    let mid_over = g.alu(AluOp::Sltu, nk, mid0);
    let mid = g.select_val(mid_over, nk, mid0);
    let two = g.konst(2);
    let w2 = g.alu(AluOp::Mul, w, two);
    let hi0 = g.alu(AluOp::Add, lo, w2);
    let hi_over = g.alu(AluOp::Sltu, nk, hi0);
    let hi = g.select_val(hi_over, nk, hi0);
    let eight = g.konst(8);
    let one = g.konst(1);
    // take-from-left if i < mid && (j >= hi || a[i] <= a[j])
    let i_ok = g.alu(AluOp::Sltu, i, mid);
    let j_ok = g.alu(AluOp::Sltu, j, hi);
    // Clamp dead-side pointers so loads stay in bounds (values unused).
    let midm1 = g.alu(AluOp::Sub, mid, one);
    let ic = g.select_val(i_ok, i, midm1);
    let him1 = g.alu(AluOp::Sub, hi, one);
    let jc = g.select_val(j_ok, j, him1);
    let ioff = g.alu(AluOp::Mul, ic, eight);
    let joff = g.alu(AluOp::Mul, jc, eight);
    let ai = g.load(MemRef::Spm(0), 8, ioff);
    let aj = g.load(MemRef::Spm(0), 8, joff);
    let right_smaller = g.alu(AluOp::Sltu, aj, ai);
    let left_le = g.alu(AluOp::Sltu, right_smaller, one); // ai <= aj
    let right_dead = g.alu(AluOp::Sltu, j_ok, one);
    let left_pref = g.alu(AluOp::Or, left_le, right_dead);
    let take_left = g.alu(AluOp::And, i_ok, left_pref);
    let val = g.select_val(take_left, ai, aj);
    let koff = g.alu(AluOp::Mul, k, eight);
    g.store(MemRef::Spm(1), 8, koff, val);
    let i2 = g.alu(AluOp::Add, i, take_left);
    let take_right = g.alu(AluOp::Sltu, take_left, one);
    let j2 = g.alu(AluOp::Add, j, take_right);
    let k2 = g.alu(AluOp::Add, k, one);
    let more = g.alu(AluOp::Sltu, k2, hi);
    g.branch(more, merge, &[w, lo, i2, j2, k2], pair_latch, &[w, lo]);

    g.select(pair_latch);
    let w = g.arg(0);
    let lo = g.arg(1);
    let two = g.konst(2);
    let w2 = g.alu(AluOp::Mul, w, two);
    let lo2 = g.alu(AluOp::Add, lo, w2);
    let nk = g.konst(N);
    let more_pairs = g.alu(AluOp::Sltu, lo2, nk);
    g.branch(more_pairs, m_head, &[w, lo2], copy_head, &[w]);

    g.select(copy_head);
    let w = g.arg(0);
    let z = g.konst(0);
    g.jump(copy_body, &[w, z]);

    g.select(copy_body);
    let w = g.arg(0);
    let idx = g.arg(1);
    let eight = g.konst(8);
    let off = g.alu(AluOp::Mul, idx, eight);
    let v = g.load(MemRef::Spm(1), 8, off);
    g.store(MemRef::Spm(0), 8, off, v);
    let one = g.konst(1);
    let idx2 = g.alu(AluOp::Add, idx, one);
    let nk = g.konst(N);
    let more = g.alu(AluOp::Sltu, idx2, nk);
    g.branch(more, copy_body, &[w, idx2], w_latch, &[w]);

    g.select(w_latch);
    let w = g.arg(0);
    let two = g.konst(2);
    let w2 = g.alu(AluOp::Mul, w, two);
    let nk = g.konst(N);
    let more = g.alu(AluOp::Sltu, w2, nk);
    g.branch(more, w_head, &[w2], done, &[]);

    g.select(done);
    g.finish();

    let mut rng = Lcg::new(0x3365);
    let vals: Vec<u64> = (0..N).map(|_| rng.below(1 << 32)).collect();

    let accel = Accelerator::new(
        "mergesort",
        g.build().expect("mergesort cdfg"),
        fu,
        vec![Sram::new("MAIN", SramKind::Spm, 8_192, 2), Sram::new("TEMP", SramKind::Spm, 8_192, 2)],
        vec![],
        0,
    );
    let mut ram = vec![0u8; 32 * 1024];
    ram[0..8_192].copy_from_slice(&u64s_to_bytes(&vals));
    DsaHarness::new(
        accel,
        ram,
        vec![DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 8_192 }],
        vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: 16_384,
            mem: MemRef::Spm(0),
            mem_off: 0,
            len: 8_192,
        }],
        vec![],
        16_384..24_576,
    )
}

/// SPMV (ELLPACK-like CRS): `y[r] = Σ val[k] · x[cols[k]]` with the
/// Table IV VAL/COLS geometries (1666 nnz over 256 rows). Corrupted COLS
/// entries index outside the dense vector — the crash component.
pub fn spmv(fu: FuConfig) -> DsaHarness {
    const ROWS: u64 = 256;
    const NNZ: u64 = 1666;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let r_head = g.block(1);
    let k_body = g.block(4); // r, k, end, acc
    let r_latch = g.block(2); // r, acc
    let done = g.block(0);

    g.select(entry);
    let z = g.konst(0);
    g.jump(r_head, &[z]);

    g.select(r_head);
    let r = g.arg(0);
    let four = g.konst(4);
    let roff = g.alu(AluOp::Mul, r, four);
    let start = g.load(MemRef::Spm(2), 4, roff);
    let roff2 = g.alu(AluOp::Add, roff, four);
    let end = g.load(MemRef::Spm(2), 4, roff2);
    let fz = g.fconst(0.0);
    g.jump(k_body, &[r, start, end, fz]);

    g.select(k_body);
    let r = g.arg(0);
    let k = g.arg(1);
    let end = g.arg(2);
    let acc = g.arg(3);
    let no_work = g.alu(AluOp::Sltu, k, end);
    let eight = g.konst(8);
    let four = g.konst(4);
    // Clamp the nnz index when the row is empty (value unused).
    let one = g.konst(1);
    let endm1 = g.alu(AluOp::Sub, end, one);
    let kc = g.select_val(no_work, k, endm1);
    let voff = g.alu(AluOp::Mul, kc, eight);
    let v = g.load(MemRef::Spm(0), 8, voff);
    let coff = g.alu(AluOp::Mul, kc, four);
    let col = g.load(MemRef::Spm(1), 4, coff);
    let xoff = g.alu(AluOp::Mul, col, eight);
    let x = g.load(MemRef::Spm(3), 8, xoff);
    let prod = g.fmul(v, x);
    let facc = g.fadd(acc, prod);
    let acc2 = g.select_val(no_work, facc, acc);
    let k2 = g.alu(AluOp::Add, k, one);
    let more = g.alu(AluOp::Sltu, k2, end);
    g.branch(more, k_body, &[r, k2, end, acc2], r_latch, &[r, acc2]);

    g.select(r_latch);
    let r = g.arg(0);
    let acc = g.arg(1);
    let eight = g.konst(8);
    let off = g.alu(AluOp::Mul, r, eight);
    g.store(MemRef::Spm(4), 8, off, acc);
    let one = g.konst(1);
    let r2 = g.alu(AluOp::Add, r, one);
    let nr = g.konst(ROWS);
    let more = g.alu(AluOp::Sltu, r2, nr);
    g.branch(more, r_head, &[r2], done, &[]);

    g.select(done);
    g.finish();

    // Matrix: NNZ entries distributed over ROWS rows.
    let mut rng = Lcg::new(0x59A7);
    let mut rowptr = vec![0u32; ROWS as usize + 1];
    let base = (NNZ / ROWS) as u32;
    let extra = (NNZ % ROWS) as u32;
    for r in 0..ROWS as usize {
        let cnt = base + u32::from((r as u32) < extra);
        rowptr[r + 1] = rowptr[r] + cnt;
    }
    let vals: Vec<f64> = (0..NNZ).map(|_| (rng.below(2000) as f64 - 1000.0) / 500.0).collect();
    let cols: Vec<u32> = (0..NNZ).map(|_| rng.below(ROWS) as u32).collect();
    let x: Vec<f64> = (0..ROWS).map(|_| (rng.below(1000) as f64) / 250.0).collect();

    let accel = Accelerator::new(
        "spmv",
        g.build().expect("spmv cdfg"),
        fu,
        vec![
            Sram::new("VAL", SramKind::Spm, 13_328, 2),
            Sram::new("COLS", SramKind::Spm, 6_664, 2),
            Sram::new("ROWPTR", SramKind::Spm, 1_028, 2),
            Sram::new("VEC", SramKind::Spm, 2_048, 2),
            Sram::new("OUT", SramKind::Spm, 2_048, 2),
        ],
        vec![],
        0,
    );
    let mut ram = vec![0u8; 64 * 1024];
    ram[0..13_328].copy_from_slice(&f64s_to_bytes(&vals));
    ram[16_384..16_384 + 6_664].copy_from_slice(&u32s_to_bytes(&cols));
    ram[24_576..24_576 + 1_028].copy_from_slice(&u32s_to_bytes(&rowptr));
    ram[28_672..30_720].copy_from_slice(&f64s_to_bytes(&x));
    DsaHarness::new(
        accel,
        ram,
        vec![
            DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 13_328 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 16_384, mem: MemRef::Spm(1), mem_off: 0, len: 6_664 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 24_576, mem: MemRef::Spm(2), mem_off: 0, len: 1_028 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 28_672, mem: MemRef::Spm(3), mem_off: 0, len: 2_048 },
        ],
        vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: 40_960,
            mem: MemRef::Spm(4),
            mem_off: 0,
            len: 2_048,
        }],
        vec![],
        40_960..43_008,
    )
}

/// 2-D 3×3 convolution over a 64×64 f64 grid; the 360-byte FILTER
/// register bank holds 45 coefficient slots of which the kernel reads 9
/// (faults in dead slots mask, as with any unused cell).
pub fn stencil2d(fu: FuConfig) -> DsaHarness {
    const DIM: u64 = 64;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let r_head = g.block(1);
    let c_body = g.block(2);
    let r_latch = g.block(1);
    let done = g.block(0);

    g.select(entry);
    let one = g.konst(1);
    g.jump(r_head, &[one]);

    g.select(r_head);
    let r = g.arg(0);
    let one = g.konst(1);
    g.jump(c_body, &[r, one]);

    g.select(c_body);
    let r = g.arg(0);
    let c = g.arg(1);
    let eight = g.konst(8);
    let dim = g.konst(DIM);
    let acc0 = g.fconst(0.0);
    let mut acc = acc0;
    for (fi, (dr, dc)) in
        [(-1i64, -1i64), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
            .iter()
            .enumerate()
    {
        let drk = g.konst(*dr as u64);
        let dck = g.konst(*dc as u64);
        let rr = g.alu(AluOp::Add, r, drk);
        let cc = g.alu(AluOp::Add, c, dck);
        let row = g.alu(AluOp::Mul, rr, dim);
        let idx = g.alu(AluOp::Add, row, cc);
        let off = g.alu(AluOp::Mul, idx, eight);
        let v = g.load(MemRef::Spm(0), 8, off);
        let foff = g.konst((fi as u64) * 8);
        let coef = g.load(MemRef::RegBank(0), 8, foff);
        let p = g.fmul(v, coef);
        acc = g.fadd(acc, p);
    }
    let row = g.alu(AluOp::Mul, r, dim);
    let idx = g.alu(AluOp::Add, row, c);
    let off = g.alu(AluOp::Mul, idx, eight);
    g.store(MemRef::Spm(1), 8, off, acc);
    let one = g.konst(1);
    let c2 = g.alu(AluOp::Add, c, one);
    let dm1 = g.konst(DIM - 1);
    let more = g.alu(AluOp::Sltu, c2, dm1);
    g.branch(more, c_body, &[r, c2], r_latch, &[r]);

    g.select(r_latch);
    let r = g.arg(0);
    let one = g.konst(1);
    let r2 = g.alu(AluOp::Add, r, one);
    let dm1 = g.konst(DIM - 1);
    let more = g.alu(AluOp::Sltu, r2, dm1);
    g.branch(more, r_head, &[r2], done, &[]);

    g.select(done);
    g.finish();

    let mut rng = Lcg::new(0x57E2);
    let orig: Vec<f64> = (0..DIM * DIM).map(|_| rng.below(256) as f64).collect();
    let mut filter = vec![0.0f64; 45];
    let coeffs = [0.0625, 0.125, 0.0625, 0.125, 0.25, 0.125, 0.0625, 0.125, 0.0625];
    filter[..9].copy_from_slice(&coeffs);

    let accel = Accelerator::new(
        "stencil2d",
        g.build().expect("stencil2d cdfg"),
        fu,
        vec![Sram::new("ORIG", SramKind::Spm, 32_768, 4), Sram::new("SOL", SramKind::Spm, 32_768, 2)],
        vec![Sram::new("FILTER", SramKind::RegBank, 360, 2)],
        0,
    );
    let mut ram = vec![0u8; 128 * 1024];
    ram[0..32_768].copy_from_slice(&f64s_to_bytes(&orig));
    ram[32_768..32_768 + 360].copy_from_slice(&f64s_to_bytes(&filter));
    DsaHarness::new(
        accel,
        ram,
        vec![
            DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 32_768 },
            DmaJob {
                dir: DmaDir::ToSram,
                ram_off: 32_768,
                mem: MemRef::RegBank(0),
                mem_off: 0,
                len: 360,
            },
        ],
        vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: 65_536,
            mem: MemRef::Spm(1),
            mem_off: 0,
            len: 32_768,
        }],
        vec![],
        65_536..98_304,
    )
}

/// 3-D 7-point stencil over a 32×16×16 grid with a single scalar
/// coefficient in the C_VAR register bank (8 bytes — Table IV).
pub fn stencil3d(fu: FuConfig) -> DsaHarness {
    const X: u64 = 32;
    const Y: u64 = 16;
    const Z: u64 = 16;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let x_head = g.block(1);
    let y_head = g.block(2);
    let z_body = g.block(3);
    let y_latch = g.block(2);
    let x_latch = g.block(1);
    let done = g.block(0);

    g.select(entry);
    let one = g.konst(1);
    g.jump(x_head, &[one]);

    g.select(x_head);
    let x = g.arg(0);
    let one = g.konst(1);
    g.jump(y_head, &[x, one]);

    g.select(y_head);
    let x = g.arg(0);
    let y = g.arg(1);
    let one = g.konst(1);
    g.jump(z_body, &[x, y, one]);

    g.select(z_body);
    let x = g.arg(0);
    let y = g.arg(1);
    let z = g.arg(2);
    let eight = g.konst(8);
    let yk = g.konst(Y);
    let zk = g.konst(Z);
    // idx = (x*Y + y)*Z + z
    let xy = g.alu(AluOp::Mul, x, yk);
    let xyy = g.alu(AluOp::Add, xy, y);
    let xyz = g.alu(AluOp::Mul, xyy, zk);
    let idx = g.alu(AluOp::Add, xyz, z);
    let coff = g.alu(AluOp::Mul, idx, eight);
    let center = g.load(MemRef::Spm(0), 8, coff);
    let czero = g.konst(0);
    let cvar = g.load(MemRef::RegBank(0), 8, czero);
    let mut nsum = None;
    let strides = [Y * Z, Y * Z, Z, Z, 1, 1];
    let signs = [1i64, -1, 1, -1, 1, -1];
    for k in 0..6 {
        let s = g.konst((signs[k] * strides[k] as i64) as u64);
        let nidx = g.alu(AluOp::Add, idx, s);
        let noff = g.alu(AluOp::Mul, nidx, eight);
        let v = g.load(MemRef::Spm(0), 8, noff);
        nsum = Some(match nsum {
            None => v,
            Some(p) => g.fadd(p, v),
        });
    }
    let nsum = nsum.unwrap();
    let cprod = g.fmul(center, cvar);
    let res = g.fadd(cprod, nsum);
    g.store(MemRef::Spm(1), 8, coff, res);
    let one = g.konst(1);
    let z2 = g.alu(AluOp::Add, z, one);
    let zm1 = g.konst(Z - 1);
    let more = g.alu(AluOp::Sltu, z2, zm1);
    g.branch(more, z_body, &[x, y, z2], y_latch, &[x, y]);

    g.select(y_latch);
    let x = g.arg(0);
    let y = g.arg(1);
    let one = g.konst(1);
    let y2 = g.alu(AluOp::Add, y, one);
    let ym1 = g.konst(Y - 1);
    let more = g.alu(AluOp::Sltu, y2, ym1);
    g.branch(more, y_head, &[x, y2], x_latch, &[x]);

    g.select(x_latch);
    let x = g.arg(0);
    let one = g.konst(1);
    let x2 = g.alu(AluOp::Add, x, one);
    let xm1 = g.konst(X - 1);
    let more = g.alu(AluOp::Sltu, x2, xm1);
    g.branch(more, x_head, &[x2], done, &[]);

    g.select(done);
    g.finish();

    let mut rng = Lcg::new(0x57E3);
    let orig: Vec<f64> = (0..X * Y * Z).map(|_| rng.below(100) as f64).collect();
    let cvar = [(-6.0f64)];

    let accel = Accelerator::new(
        "stencil3d",
        g.build().expect("stencil3d cdfg"),
        fu,
        vec![Sram::new("ORIG", SramKind::Spm, 65_536, 4), Sram::new("SOL", SramKind::Spm, 65_536, 2)],
        vec![Sram::new("C_VAR", SramKind::RegBank, 8, 1)],
        0,
    );
    let mut ram = vec![0u8; 256 * 1024];
    ram[0..65_536].copy_from_slice(&f64s_to_bytes(&orig));
    ram[65_536..65_544].copy_from_slice(&f64s_to_bytes(&cvar));
    DsaHarness::new(
        accel,
        ram,
        vec![
            DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 65_536 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 65_536, mem: MemRef::RegBank(0), mem_off: 0, len: 8 },
        ],
        vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: 131_072,
            mem: MemRef::Spm(1),
            mem_off: 0,
            len: 65_536,
        }],
        vec![],
        131_072..196_608,
    )
}
