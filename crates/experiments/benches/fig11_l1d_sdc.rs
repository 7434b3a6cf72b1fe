//! Fig. 11: SDC-only AVF of the L1 data cache.
fn main() {
    marvel_experiments::cpu_figure_main("fig11_l1d_sdc");
}
