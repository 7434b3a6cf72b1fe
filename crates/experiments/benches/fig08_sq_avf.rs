//! Fig. 8: AVF of the store queue (transient, single-bit).
fn main() {
    marvel_experiments::cpu_figure_main("fig08_sq_avf");
}
