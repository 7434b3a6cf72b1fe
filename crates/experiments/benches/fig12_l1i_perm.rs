//! Fig. 12: SDC probability of permanent faults in the L1 instruction cache.
fn main() {
    marvel_experiments::cpu_figure_main("fig12_l1i_perm");
}
