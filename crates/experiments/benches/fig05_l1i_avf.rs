//! Fig. 5: AVF of the L1 instruction cache (transient, single-bit).
fn main() {
    marvel_experiments::cpu_figure_main("fig05_l1i_avf");
}
