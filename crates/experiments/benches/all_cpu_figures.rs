//! Combined runner for the CPU-side figures (Figs. 4–13): one golden run
//! per (benchmark × ISA) reused across all five transient structure
//! campaigns and both permanent-fault campaigns, with Figs. 9–11 read
//! from the records of Figs. 4–6. Each figure's per-figure harness reuses
//! the CSV written here while its `#` line matches the harness's own.

use marvel_experiments::{banner, cpu_figures, CPU_FIGURES};

fn main() {
    banner("Figs. 4-13", "combined CPU-structure campaigns (shared goldens + records)");
    for table in cpu_figures(&CPU_FIGURES) {
        table.print_and_save();
    }
}
