//! Compile cells — a program's `.sq` source plus the
//! `(policy, arch, router, mbu)` settings to compile it under — and the
//! fixed cell lists of the two offline workloads.

use std::sync::Arc;

use square_bench::SweepArch;
use square_core::{CompilerConfig, Policy, RouterKind};
use square_workloads::Benchmark;

/// One compile cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Program name (catalog name, corpus file stem, or synthetic id).
    pub program: Arc<str>,
    /// The `.sq` source bytes the program under test receives.
    pub source: Arc<str>,
    /// Reclamation policy.
    pub policy: Policy,
    /// Target architecture.
    pub arch: SweepArch,
    /// Swap-chain router (always greedy on braided archs, where the
    /// compiler never consults it).
    pub router: RouterKind,
    /// Measurement-based uncomputation on or off.
    pub mbu: bool,
}

impl Cell {
    /// A cell with the router normalized the way the compiler and the
    /// service normalize it.
    pub fn new(
        program: &Arc<str>,
        source: &Arc<str>,
        policy: Policy,
        arch: SweepArch,
        router: RouterKind,
        mbu: bool,
    ) -> Cell {
        Cell {
            program: Arc::clone(program),
            source: Arc::clone(source),
            policy,
            arch,
            router: if arch.is_braided() {
                RouterKind::Greedy
            } else {
                router
            },
            mbu,
        }
    }

    /// The compiler configuration, built the way `squarec` builds it.
    pub fn config(&self) -> CompilerConfig {
        self.arch
            .config(self.policy)
            .with_router(self.router)
            .with_mbu(self.mbu)
    }

    /// `PROGRAM/policy/arch/router[/mbu]`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}{}",
            self.program,
            self.policy.cli_name(),
            self.arch,
            self.router.cli_name(),
            if self.mbu { "/mbu" } else { "" }
        )
    }

    /// True when the route replay can reproduce this cell: greedy
    /// swap chains or braiding. The lookahead router reads a window of
    /// upcoming gates the executor feeds it, which a replay from the
    /// trace does not reconstruct.
    pub fn replayable(&self) -> bool {
        self.arch.is_braided() || self.router == RouterKind::Greedy
    }
}

/// A program's name and `.sq` source.
pub type NamedSource = (Arc<str>, Arc<str>);

/// A catalog benchmark rendered to `.sq` source.
pub fn catalog_program(bench: Benchmark) -> Result<NamedSource, String> {
    let source =
        square_workloads::sq_source(bench).map_err(|e| format!("{}: {e}", bench.name()))?;
    Ok((Arc::from(bench.name()), Arc::from(source)))
}

/// `arith-route`: the arithmetic benchmarks on `nisq` with the greedy
/// router, plus MUL32/square on `ft` (braiding).
pub fn arith_route() -> Result<Vec<Cell>, String> {
    use Policy::{Eager, Lazy, Square};
    let rows: [(Benchmark, &[Policy]); 4] = [
        (Benchmark::Mul32, &[Square, Eager, Lazy]),
        (Benchmark::Mul64, &[Square, Eager]),
        (Benchmark::Sha2, &[Square, Eager, Lazy]),
        (Benchmark::Adder64, &[Square, Eager]),
    ];
    let mut cells = Vec::new();
    for (bench, policies) in rows {
        let (name, source) = catalog_program(bench)?;
        for &policy in policies {
            cells.push(Cell::new(
                &name,
                &source,
                policy,
                SweepArch::NisqAuto,
                RouterKind::Greedy,
                false,
            ));
        }
        if bench == Benchmark::Mul32 {
            cells.push(Cell::new(
                &name,
                &source,
                Square,
                SweepArch::FtAuto,
                RouterKind::Greedy,
                false,
            ));
        }
    }
    Ok(cells)
}

/// `small-cells`: the seven NISQ benchmarks plus MODEXP and Belle,
/// under every policy on `nisq` and `ft` (72 cells, greedy router).
pub fn small_cells() -> Result<Vec<Cell>, String> {
    let benches = Benchmark::NISQ
        .into_iter()
        .chain([Benchmark::Modexp, Benchmark::Belle]);
    let mut cells = Vec::new();
    for bench in benches {
        let (name, source) = catalog_program(bench)?;
        for policy in Policy::ALL {
            for arch in [SweepArch::NisqAuto, SweepArch::FtAuto] {
                cells.push(Cell::new(
                    &name,
                    &source,
                    policy,
                    arch,
                    RouterKind::Greedy,
                    false,
                ));
            }
        }
    }
    Ok(cells)
}

/// True for the programs of the paper's NISQ set (≤ 20 qubits), whose
/// `nisq` cells feed the success-rate estimate.
pub fn is_nisq_benchmark(program: &str) -> bool {
    Benchmark::NISQ.iter().any(|b| b.name() == program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_cell_counts() {
        assert_eq!(arith_route().unwrap().len(), 11);
        assert_eq!(small_cells().unwrap().len(), 72);
    }

    #[test]
    fn braided_cells_normalize_the_router() {
        let name: Arc<str> = Arc::from("p");
        let cell = Cell::new(
            &name,
            &name,
            Policy::Square,
            SweepArch::FtAuto,
            RouterKind::Lookahead,
            false,
        );
        assert_eq!(cell.router, RouterKind::Greedy);
        assert!(cell.replayable());
        assert_eq!(cell.label(), "p/square/ft/greedy");
    }
}
