//! MachSuite designs: BFS, FFT, GEMM, MD-KNN.

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

/// BFS over a 256-node / 2048-edge graph held in the EDGES and NODES
/// register banks (Table IV), frontier propagation by horizon. Faults in
/// either bank corrupt traversal *indices*, which is why this design is
/// crash-dominated in the paper.
pub fn bfs(fu: FuConfig) -> DsaHarness {
    const N: u64 = 256;
    const DEG: u64 = 8;
    const INF: u64 = 999;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let h_head = g.block(1);
    let n_head = g.block(2);
    let e_init = g.block(2);
    let e_body = g.block(4);
    let n_latch = g.block(2);
    let h_latch = g.block(1);
    let done = g.block(0);

    g.select(entry);
    let z = g.konst(0);
    g.jump(h_head, &[z]);

    g.select(h_head);
    let h = g.arg(0);
    let z = g.konst(0);
    g.jump(n_head, &[h, z]);

    g.select(n_head);
    let h = g.arg(0);
    let n = g.arg(1);
    let eight = g.konst(8);
    let off = g.alu(AluOp::Mul, n, eight);
    let lvl = g.load(MemRef::Spm(0), 8, off);
    let is_h = g.alu(AluOp::Sub, lvl, h);
    let zero = g.konst(0);
    let ne = g.alu(AluOp::Sltu, zero, is_h);
    g.branch(ne, n_latch, &[h, n], e_init, &[h, n]);

    g.select(e_init);
    let h = g.arg(0);
    let n = g.arg(1);
    let eight = g.konst(8);
    let off = g.alu(AluOp::Mul, n, eight);
    let nd = g.load(MemRef::RegBank(1), 8, off);
    let mask = g.konst(0xFFFF_FFFF);
    let start = g.alu(AluOp::And, nd, mask);
    let c32 = g.konst(32);
    let count = g.alu(AluOp::Srl, nd, c32);
    let end = g.alu(AluOp::Add, start, count);
    let any = g.alu(AluOp::Sltu, start, end);
    g.branch(any, e_body, &[h, n, start, end], n_latch, &[h, n]);

    g.select(e_body);
    let h = g.arg(0);
    let n = g.arg(1);
    let e = g.arg(2);
    let end = g.arg(3);
    let eight = g.konst(8);
    let eoff = g.alu(AluOp::Mul, e, eight);
    let tgt = g.load(MemRef::RegBank(0), 8, eoff);
    let toff = g.alu(AluOp::Mul, tgt, eight);
    let tl = g.load(MemRef::Spm(0), 8, toff);
    let one = g.konst(1);
    let h1 = g.alu(AluOp::Add, h, one);
    let better = g.alu(AluOp::Sltu, h1, tl);
    let new_lvl = g.select_val(better, h1, tl);
    g.store(MemRef::Spm(0), 8, toff, new_lvl);
    let e2 = g.alu(AluOp::Add, e, one);
    let more = g.alu(AluOp::Sltu, e2, end);
    g.branch(more, e_body, &[h, n, e2, end], n_latch, &[h, n]);

    g.select(n_latch);
    let h = g.arg(0);
    let n = g.arg(1);
    let one = g.konst(1);
    let n2 = g.alu(AluOp::Add, n, one);
    let nn = g.konst(N);
    let more = g.alu(AluOp::Sltu, n2, nn);
    g.branch(more, n_head, &[h, n2], h_latch, &[h]);

    g.select(h_latch);
    let h = g.arg(0);
    let one = g.konst(1);
    let h2 = g.alu(AluOp::Add, h, one);
    let maxh = g.konst(12);
    let more = g.alu(AluOp::Sltu, h2, maxh);
    g.branch(more, h_head, &[h2], done, &[]);

    g.select(done);
    g.finish();

    // Graph: node i owns edges [i*DEG, (i+1)*DEG); targets pseudo-random
    // with a guaranteed ring edge for connectivity.
    let mut rng = Lcg::new(0xBF5);
    let mut nodes = Vec::with_capacity(N as usize);
    let mut edges = Vec::with_capacity((N * DEG) as usize);
    for i in 0..N {
        nodes.push((i * DEG) | (DEG << 32));
        edges.push((i + 1) % N);
        for _ in 1..DEG {
            edges.push(rng.below(N));
        }
    }
    let mut levels = vec![INF; N as usize];
    levels[0] = 0;

    let accel = Accelerator::new(
        "bfs",
        g.build().expect("bfs cdfg"),
        fu,
        vec![Sram::new("LEVEL", SramKind::Spm, 2048, 2)],
        vec![
            Sram::new("EDGES", SramKind::RegBank, 16_384, 2),
            Sram::new("NODES", SramKind::RegBank, 2_048, 2),
        ],
        0,
    );
    let mut ram = vec![0u8; 64 * 1024];
    ram[0..16_384].copy_from_slice(&u64s_to_bytes(&edges));
    ram[16_384..18_432].copy_from_slice(&u64s_to_bytes(&nodes));
    ram[18_432..20_480].copy_from_slice(&u64s_to_bytes(&levels));
    DsaHarness::new(
        accel,
        ram,
        vec![
            DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::RegBank(0), mem_off: 0, len: 16_384 },
            DmaJob {
                dir: DmaDir::ToSram,
                ram_off: 16_384,
                mem: MemRef::RegBank(1),
                mem_off: 0,
                len: 2_048,
            },
            DmaJob { dir: DmaDir::ToSram, ram_off: 18_432, mem: MemRef::Spm(0), mem_off: 0, len: 2_048 },
        ],
        vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: 32_768,
            mem: MemRef::Spm(0),
            mem_off: 0,
            len: 2_048,
        }],
        vec![],
        32_768..34_816,
    )
}

/// 1024-point strided (DIF) FFT over the REAL/IMG scratchpads; twiddles
/// in a third (non-target) SPM. Output in bit-reversed order, as in
/// MachSuite's fft/strided.
pub fn fft(fu: FuConfig) -> DsaHarness {
    const N: u64 = 1024;
    const LOGN: u64 = 10;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let s_head = g.block(1);
    let body = g.block(2);
    let s_latch = g.block(1);
    let done = g.block(0);

    g.select(entry);
    let z = g.konst(0);
    g.jump(s_head, &[z]);

    g.select(s_head);
    let s = g.arg(0);
    let z = g.konst(0);
    g.jump(body, &[s, z]);

    g.select(body);
    let s = g.arg(0);
    let j = g.arg(1);
    // span = N >> (s+1); log_span = LOGN-1-s
    let one = g.konst(1);
    let s1 = g.alu(AluOp::Add, s, one);
    let nk = g.konst(N);
    let span = g.alu(AluOp::Srl, nk, s1);
    let logn1 = g.konst(LOGN - 1);
    let log_span = g.alu(AluOp::Sub, logn1, s);
    // grp = j >> log_span; pos = j & (span-1)
    let grp = g.alu(AluOp::Srl, j, log_span);
    let span_m1 = g.alu(AluOp::Sub, span, one);
    let pos = g.alu(AluOp::And, j, span_m1);
    // even = grp*2*span + pos; odd = even + span
    let two = g.konst(2);
    let g2 = g.alu(AluOp::Mul, grp, two);
    let g2s = g.alu(AluOp::Mul, g2, span);
    let even = g.alu(AluOp::Add, g2s, pos);
    let odd = g.alu(AluOp::Add, even, span);
    let eight = g.konst(8);
    let e_off = g.alu(AluOp::Mul, even, eight);
    let o_off = g.alu(AluOp::Mul, odd, eight);
    let er = g.load(MemRef::Spm(1), 8, e_off);
    let ei = g.load(MemRef::Spm(0), 8, e_off);
    let or_ = g.load(MemRef::Spm(1), 8, o_off);
    let oi = g.load(MemRef::Spm(0), 8, o_off);
    // twiddle index = pos << s; table holds (cos, sin) pairs.
    let tw_i = g.alu(AluOp::Sll, pos, s);
    let sixteen = g.konst(16);
    let tw_off = g.alu(AluOp::Mul, tw_i, sixteen);
    let wr = g.load(MemRef::Spm(2), 8, tw_off);
    let tw_off2 = g.alu(AluOp::Add, tw_off, eight);
    let wi = g.load(MemRef::Spm(2), 8, tw_off2);
    // e' = e + o ; d = e - o ; o' = d * w
    let sr = g.fadd(er, or_);
    let si = g.fadd(ei, oi);
    let dr = g.fsub(er, or_);
    let di = g.fsub(ei, oi);
    let m1 = g.fmul(dr, wr);
    let m2 = g.fmul(di, wi);
    let m3 = g.fmul(dr, wi);
    let m4 = g.fmul(di, wr);
    let nr = g.fsub(m1, m2);
    let ni = g.fadd(m3, m4);
    g.store(MemRef::Spm(1), 8, e_off, sr);
    g.store(MemRef::Spm(0), 8, e_off, si);
    g.store(MemRef::Spm(1), 8, o_off, nr);
    g.store(MemRef::Spm(0), 8, o_off, ni);
    let j2 = g.alu(AluOp::Add, j, one);
    let half = g.konst(N / 2);
    let more = g.alu(AluOp::Sltu, j2, half);
    g.branch(more, body, &[s, j2], s_latch, &[s]);

    g.select(s_latch);
    let s = g.arg(0);
    let one = g.konst(1);
    let s2 = g.alu(AluOp::Add, s, one);
    let ln = g.konst(LOGN);
    let more = g.alu(AluOp::Sltu, s2, ln);
    g.branch(more, s_head, &[s2], done, &[]);

    g.select(done);
    g.finish();

    // Twiddles (cos, sin) for k in 0..N/2.
    let mut tw = Vec::with_capacity(N as usize);
    for k in 0..N / 2 {
        let ang = -2.0 * std::f64::consts::PI * k as f64 / N as f64;
        tw.push(ang.cos());
        tw.push(ang.sin());
    }
    let mut rng = Lcg::new(0xFF7 + 1);
    let re: Vec<f64> =
        (0..N).map(|i| ((i % 16) as f64 - 8.0) + (rng.below(100) as f64) / 100.0).collect();
    let im = vec![0.0f64; N as usize];

    let accel = Accelerator::new(
        "fft",
        g.build().expect("fft cdfg"),
        fu,
        vec![
            Sram::new("IMG", SramKind::Spm, 8_192, 2),
            Sram::new("REAL", SramKind::Spm, 8_192, 2),
            Sram::new("TWID", SramKind::Spm, 8_192, 2),
        ],
        vec![],
        0,
    );
    let mut ram = vec![0u8; 64 * 1024];
    ram[0..8_192].copy_from_slice(&f64s_to_bytes(&re));
    ram[8_192..16_384].copy_from_slice(&f64s_to_bytes(&im));
    ram[16_384..24_576].copy_from_slice(&f64s_to_bytes(&tw));
    DsaHarness::new(
        accel,
        ram,
        vec![
            DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(1), mem_off: 0, len: 8_192 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 8_192, mem: MemRef::Spm(0), mem_off: 0, len: 8_192 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 16_384, mem: MemRef::Spm(2), mem_off: 0, len: 8_192 },
        ],
        vec![
            DmaJob { dir: DmaDir::ToRam, ram_off: 32_768, mem: MemRef::Spm(1), mem_off: 0, len: 8_192 },
            DmaJob { dir: DmaDir::ToRam, ram_off: 40_960, mem: MemRef::Spm(0), mem_off: 0, len: 8_192 },
        ],
        vec![],
        32_768..49_152,
    )
}

/// 64×64 f64 matrix multiply, inner (k) loop unrolled ×8 so the FU count
/// genuinely bounds throughput — the Fig. 17 design-space axis.
pub fn gemm(fu: FuConfig) -> DsaHarness {
    const N: u64 = 64;
    const UNROLL: u64 = 8;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let i_head = g.block(1);
    let j_head = g.block(2);
    let k_body = g.block(4);
    let j_latch = g.block(3);
    let i_latch = g.block(1);
    let done = g.block(0);

    g.select(entry);
    let z = g.konst(0);
    g.jump(i_head, &[z]);

    g.select(i_head);
    let i = g.arg(0);
    let z = g.konst(0);
    g.jump(j_head, &[i, z]);

    g.select(j_head);
    let i = g.arg(0);
    let j = g.arg(1);
    let z = g.konst(0);
    let fz = g.fconst(0.0);
    g.jump(k_body, &[i, j, z, fz]);

    g.select(k_body);
    let i = g.arg(0);
    let j = g.arg(1);
    let k = g.arg(2);
    let acc = g.arg(3);
    let row_stride = g.konst(N * 8);
    let eight = g.konst(8);
    let a_row = g.alu(AluOp::Mul, i, row_stride);
    let j8 = g.alu(AluOp::Mul, j, eight);
    let mut prods = Vec::new();
    for u in 0..UNROLL {
        let uk = g.konst(u);
        let ku = g.alu(AluOp::Add, k, uk);
        let ku8 = g.alu(AluOp::Mul, ku, eight);
        let a_off = g.alu(AluOp::Add, a_row, ku8);
        let a = g.load(MemRef::Spm(0), 8, a_off);
        let b_row = g.alu(AluOp::Mul, ku, row_stride);
        let b_off = g.alu(AluOp::Add, b_row, j8);
        let bb = g.load(MemRef::Spm(1), 8, b_off);
        prods.push(g.fmul(a, bb));
    }
    // Reduction tree.
    let s01 = g.fadd(prods[0], prods[1]);
    let s23 = g.fadd(prods[2], prods[3]);
    let s45 = g.fadd(prods[4], prods[5]);
    let s67 = g.fadd(prods[6], prods[7]);
    let s0123 = g.fadd(s01, s23);
    let s4567 = g.fadd(s45, s67);
    let sum = g.fadd(s0123, s4567);
    let acc2 = g.fadd(acc, sum);
    let un = g.konst(UNROLL);
    let k2 = g.alu(AluOp::Add, k, un);
    let nk = g.konst(N);
    let more = g.alu(AluOp::Sltu, k2, nk);
    g.branch(more, k_body, &[i, j, k2, acc2], j_latch, &[i, j, acc2]);

    g.select(j_latch);
    let i = g.arg(0);
    let j = g.arg(1);
    let acc = g.arg(2);
    let row_stride = g.konst(N * 8);
    let eight = g.konst(8);
    let c_row = g.alu(AluOp::Mul, i, row_stride);
    let j8 = g.alu(AluOp::Mul, j, eight);
    let c_off = g.alu(AluOp::Add, c_row, j8);
    g.store(MemRef::Spm(2), 8, c_off, acc);
    let one = g.konst(1);
    let j2 = g.alu(AluOp::Add, j, one);
    let nk = g.konst(N);
    let more = g.alu(AluOp::Sltu, j2, nk);
    g.branch(more, j_head, &[i, j2], i_latch, &[i]);

    g.select(i_latch);
    let i = g.arg(0);
    let one = g.konst(1);
    let i2 = g.alu(AluOp::Add, i, one);
    let nk = g.konst(N);
    let more = g.alu(AluOp::Sltu, i2, nk);
    g.branch(more, i_head, &[i2], done, &[]);

    g.select(done);
    g.finish();

    let mut rng = Lcg::new(0x6E33);
    let a: Vec<f64> = (0..N * N).map(|_| (rng.below(2000) as f64 - 1000.0) / 1000.0).collect();
    let bmat: Vec<f64> = (0..N * N).map(|_| (rng.below(2000) as f64 - 1000.0) / 1000.0).collect();

    let accel = Accelerator::new(
        "gemm",
        g.build().expect("gemm cdfg"),
        fu,
        vec![
            Sram::new("MATRIX1", SramKind::Spm, 32_768, 4),
            Sram::new("MATRIX2", SramKind::Spm, 32_768, 4),
            Sram::new("MATRIX3", SramKind::Spm, 32_768, 2),
        ],
        vec![],
        0,
    );
    let mut ram = vec![0u8; 128 * 1024];
    ram[0..32_768].copy_from_slice(&f64s_to_bytes(&a));
    ram[32_768..65_536].copy_from_slice(&f64s_to_bytes(&bmat));
    DsaHarness::new(
        accel,
        ram,
        vec![
            DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 32_768 },
            DmaJob {
                dir: DmaDir::ToSram,
                ram_off: 32_768,
                mem: MemRef::Spm(1),
                mem_off: 0,
                len: 32_768,
            },
        ],
        vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: 65_536,
            mem: MemRef::Spm(2),
            mem_off: 0,
            len: 32_768,
        }],
        vec![],
        65_536..98_304,
    )
}

/// MD-KNN: Lennard-Jones x-force accumulation over 8-neighbour lists
/// (NLADDR holds neighbour *indices* — fault-corrupted entries walk out
/// of the position arrays).
pub fn md_knn(fu: FuConfig) -> DsaHarness {
    const ATOMS: u64 = 256;
    const NEIGH: u64 = 8;
    let mut g = CdfgBuilder::new();
    let entry = g.block(0);
    let a_head = g.block(1);
    let n_body = g.block(6); // i, j, fx, px, py, pz
    let a_latch = g.block(2); // i, fx
    let done = g.block(0);

    g.select(entry);
    let z = g.konst(0);
    g.jump(a_head, &[z]);

    g.select(a_head);
    let i = g.arg(0);
    let eight = g.konst(8);
    let off = g.alu(AluOp::Mul, i, eight);
    let px = g.load(MemRef::Spm(2), 8, off);
    let py = g.load(MemRef::Spm(3), 8, off);
    let pz = g.load(MemRef::Spm(4), 8, off);
    let z = g.konst(0);
    let fz = g.fconst(0.0);
    g.jump(n_body, &[i, z, fz, px, py, pz]);

    g.select(n_body);
    let i = g.arg(0);
    let j = g.arg(1);
    let fx = g.arg(2);
    let px = g.arg(3);
    let py = g.arg(4);
    let pz = g.arg(5);
    let eight = g.konst(8);
    let nk = g.konst(NEIGH);
    let base = g.alu(AluOp::Mul, i, nk);
    let slot = g.alu(AluOp::Add, base, j);
    let soff = g.alu(AluOp::Mul, slot, eight);
    let idx = g.load(MemRef::Spm(0), 8, soff);
    let poff = g.alu(AluOp::Mul, idx, eight);
    let qx = g.load(MemRef::Spm(2), 8, poff);
    let qy = g.load(MemRef::Spm(3), 8, poff);
    let qz = g.load(MemRef::Spm(4), 8, poff);
    let dx = g.fsub(px, qx);
    let dy = g.fsub(py, qy);
    let dz = g.fsub(pz, qz);
    let dx2 = g.fmul(dx, dx);
    let dy2 = g.fmul(dy, dy);
    let dz2 = g.fmul(dz, dz);
    let s1 = g.fadd(dx2, dy2);
    let r2 = g.fadd(s1, dz2);
    let one = g.fconst(1.0);
    let r2inv = g.fdiv(one, r2);
    let r4 = g.fmul(r2inv, r2inv);
    let r6 = g.fmul(r4, r2inv);
    let half = g.fconst(0.5);
    let t1 = g.fsub(r6, half);
    let pot = g.fmul(r6, t1);
    let fterm = g.fmul(pot, dx);
    let fx2 = g.fadd(fx, fterm);
    let ik = g.konst(1);
    let j2 = g.alu(AluOp::Add, j, ik);
    let more = g.alu(AluOp::Sltu, j2, nk);
    g.branch(more, n_body, &[i, j2, fx2, px, py, pz], a_latch, &[i, fx2]);

    g.select(a_latch);
    let i = g.arg(0);
    let fx = g.arg(1);
    let eight = g.konst(8);
    let off = g.alu(AluOp::Mul, i, eight);
    g.store(MemRef::Spm(1), 8, off, fx);
    let one = g.konst(1);
    let i2 = g.alu(AluOp::Add, i, one);
    let na = g.konst(ATOMS);
    let more = g.alu(AluOp::Sltu, i2, na);
    g.branch(more, a_head, &[i2], done, &[]);

    g.select(done);
    g.finish();

    let mut rng = Lcg::new(0x3DD);
    let posx: Vec<f64> = (0..ATOMS).map(|_| rng.below(1000) as f64 / 100.0).collect();
    let posy: Vec<f64> = (0..ATOMS).map(|_| rng.below(1000) as f64 / 100.0).collect();
    let posz: Vec<f64> = (0..ATOMS).map(|_| rng.below(1000) as f64 / 100.0).collect();
    let mut nl = Vec::with_capacity((ATOMS * NEIGH) as usize);
    for i in 0..ATOMS {
        for k in 1..=NEIGH {
            nl.push((i + k * 7) % ATOMS);
        }
    }

    let accel = Accelerator::new(
        "md_knn",
        g.build().expect("md cdfg"),
        fu,
        vec![
            Sram::new("NLADDR", SramKind::Spm, 16_384, 2),
            Sram::new("FORCEX", SramKind::Spm, 2_048, 2),
            Sram::new("POSX", SramKind::Spm, 2_048, 2),
            Sram::new("POSY", SramKind::Spm, 2_048, 2),
            Sram::new("POSZ", SramKind::Spm, 2_048, 2),
        ],
        vec![],
        0,
    );
    let mut ram = vec![0u8; 64 * 1024];
    ram[0..16_384].copy_from_slice(&u64s_to_bytes(&nl));
    ram[16_384..18_432].copy_from_slice(&f64s_to_bytes(&posx));
    ram[18_432..20_480].copy_from_slice(&f64s_to_bytes(&posy));
    ram[20_480..22_528].copy_from_slice(&f64s_to_bytes(&posz));
    DsaHarness::new(
        accel,
        ram,
        vec![
            DmaJob { dir: DmaDir::ToSram, ram_off: 0, mem: MemRef::Spm(0), mem_off: 0, len: 16_384 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 16_384, mem: MemRef::Spm(2), mem_off: 0, len: 2_048 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 18_432, mem: MemRef::Spm(3), mem_off: 0, len: 2_048 },
            DmaJob { dir: DmaDir::ToSram, ram_off: 20_480, mem: MemRef::Spm(4), mem_off: 0, len: 2_048 },
        ],
        vec![DmaJob {
            dir: DmaDir::ToRam,
            ram_off: 32_768,
            mem: MemRef::Spm(1),
            mem_off: 0,
            len: 2_048,
        }],
        vec![],
        32_768..34_816,
    )
}
