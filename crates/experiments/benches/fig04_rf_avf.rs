//! Fig. 4: AVF of the integer physical register file (transient, single-bit).
fn main() {
    marvel_experiments::cpu_figure_main("fig04_rf_avf");
}
