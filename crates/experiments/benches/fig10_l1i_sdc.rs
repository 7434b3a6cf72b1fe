//! Fig. 10: SDC-only AVF of the L1 instruction cache.
fn main() {
    marvel_experiments::cpu_figure_main("fig10_l1i_sdc");
}
