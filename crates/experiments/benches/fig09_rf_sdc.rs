//! Fig. 9: SDC-only AVF of the physical register file.
fn main() {
    marvel_experiments::cpu_figure_main("fig09_rf_sdc");
}
