//! Fig. 13: SDC probability of permanent faults in the L1 data cache.
fn main() {
    marvel_experiments::cpu_figure_main("fig13_l1d_perm");
}
