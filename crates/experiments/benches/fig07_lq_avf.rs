//! Fig. 7: AVF of the load queue (transient, single-bit).
fn main() {
    marvel_experiments::cpu_figure_main("fig07_lq_avf");
}
