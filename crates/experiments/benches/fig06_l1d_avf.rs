//! Fig. 6: AVF of the L1 data cache (transient, single-bit).
fn main() {
    marvel_experiments::cpu_figure_main("fig06_l1d_avf");
}
