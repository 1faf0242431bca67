//! Proves the zero-allocation contract of the warm PCG path: with a
//! reused [`PcgWorkspace`], history recording off and a caller-owned
//! solution buffer, `solve_sparse_into` performs **no heap allocation**.
//!
//! The library itself forbids `unsafe`; this integration test is its
//! own crate root, so it can install a counting [`GlobalAlloc`] without
//! weakening that guarantee.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use aeropack_solver::{solve_sparse_into, CsrMatrix, PcgWorkspace, Precond, SolverConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn laplacian(n: usize) -> CsrMatrix {
    CsrMatrix::from_row_fn(n, 1, |i, row| {
        if i > 0 {
            row.push((i - 1, -1.0));
        }
        row.push((i, 2.0));
        if i + 1 < n {
            row.push((i + 1, -1.0));
        }
    })
}

/// Kept as the single test in this file: the allocation counter is
/// process-global, and a concurrently running sibling test would
/// register its own allocations inside the measured window.
#[test]
fn warm_pcg_solve_performs_no_heap_allocation() {
    let n = 400;
    let a = laplacian(n);
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];
    let cfg = SolverConfig::new()
        .preconditioner(Precond::Jacobi)
        .threads(1)
        .record_history(false)
        .context("zero-alloc proof");
    let mut ws = PcgWorkspace::with_capacity(n);

    // Warm-up: the first solve may size the diagonal buffer.
    let warm = solve_sparse_into(&mut ws, &a, &b, &mut x, &cfg).expect("warm solve");
    assert!(warm.converged(), "warm-up must converge");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats = solve_sparse_into(&mut ws, &a, &b, &mut x, &cfg).expect("warm solve");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(stats.converged(), "measured solve must converge");
    assert!(stats.iterations > 0, "solve must actually iterate");
    assert_eq!(
        after - before,
        0,
        "warm solve_sparse_into allocated {} time(s); the warm PCG loop must be allocation-free",
        after - before
    );

    // Sanity: the counter does observe ordinary allocations.
    let probe = ALLOCATIONS.load(Ordering::SeqCst);
    let v = std::hint::black_box(vec![0u8; 64]);
    assert!(
        ALLOCATIONS.load(Ordering::SeqCst) > probe,
        "allocation counter must be live"
    );
    drop(v);

    // The instrumented hot path emits obs events (solver.pcg.*). With
    // observability in its default disabled state — as measured above —
    // those events must cost nothing: the zero-alloc assertion already
    // covers them, since solve_sparse_into is instrumented. Now prove
    // the events are real when enabled...
    assert!(!aeropack_obs::enabled(), "obs must default to disabled");
    let reg = std::sync::Arc::new(aeropack_obs::Registry::new());
    {
        let _obs = aeropack_obs::scoped(reg.clone());
        let stats = solve_sparse_into(&mut ws, &a, &b, &mut x, &cfg).expect("observed solve");
        assert_eq!(reg.counter("solver.pcg.solves"), 1);
        assert_eq!(
            reg.counter("solver.pcg.iterations"),
            stats.iterations as u64
        );
    }
    // ...and that dropping back to disabled restores the allocation-free
    // warm path (the enable flag really is the only state consulted).
    assert!(!aeropack_obs::enabled(), "scope end must disable obs again");
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats = solve_sparse_into(&mut ws, &a, &b, &mut x, &cfg).expect("re-disabled solve");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(stats.converged());
    assert_eq!(
        after - before,
        0,
        "obs disabled again: warm solve allocated {} time(s)",
        after - before
    );

    // IC(0) + RCM: the first solve builds the permutation, the permuted
    // matrix and the factor (all cached in the workspace); from then on
    // the triangular applies, the value-snapshot comparisons and the
    // permute/scatter steps must all run without touching the heap.
    let ic0_cfg = SolverConfig::new()
        .preconditioner(Precond::Ic0)
        .threads(1)
        .record_history(false)
        .context("zero-alloc IC(0) proof");
    let warm = solve_sparse_into(&mut ws, &a, &b, &mut x, &ic0_cfg).expect("IC(0) warm-up");
    assert!(warm.converged());
    let setup = warm.stats_factorization_reused();
    assert!(!setup, "first IC(0) solve must factor, not reuse");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats = solve_sparse_into(&mut ws, &a, &b, &mut x, &ic0_cfg).expect("warm IC(0) solve");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    let factor = stats.factorization.expect("IC(0) reports factor stats");
    assert!(factor.reused, "warm IC(0) solve must reuse the factor");
    assert!(factor.reordered, "IC(0) engages RCM");
    assert!(stats.converged());
    assert_eq!(
        after - before,
        0,
        "warm IC(0) solve allocated {} time(s); the factor-cached path must be allocation-free",
        after - before
    );

    // IC(0) on the same pattern with new values — what a mission does
    // on every θ-matrix rebuild: the RCM copy refreshes its values and
    // the factor refactors numerically, both in place.
    let scaled = CsrMatrix::from_pattern_row_fn(&a.pattern(), 1, |i, row| {
        for idx in a.row_offsets()[i]..a.row_offsets()[i + 1] {
            row.push((a.col_indices()[idx], 3.0 * a.values()[idx]));
        }
    });
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats =
        solve_sparse_into(&mut ws, &scaled, &b, &mut x, &ic0_cfg).expect("IC(0) refactor solve");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    let factor = stats.factorization.expect("IC(0) reports factor stats");
    assert!(!factor.reused, "new values must refactor, not reuse");
    assert!(stats.converged());
    assert_eq!(
        after - before,
        0,
        "IC(0) refactor solve allocated {} time(s); the same-pattern refresh must be allocation-free",
        after - before
    );

    // Chebyshev: the warm path reuses the cached spectral bounds and
    // the polynomial scratch, so applying a degree-k polynomial per
    // iteration must not touch the heap either.
    let cheb_cfg = SolverConfig::new()
        .preconditioner(Precond::Chebyshev(4))
        .threads(1)
        .record_history(false)
        .context("zero-alloc Chebyshev proof");
    let warm = solve_sparse_into(&mut ws, &a, &b, &mut x, &cheb_cfg).expect("Chebyshev warm-up");
    assert!(warm.converged());
    assert!(!warm.spectral.expect("spectral stats").reused);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats =
        solve_sparse_into(&mut ws, &a, &b, &mut x, &cheb_cfg).expect("warm Chebyshev solve");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(stats.converged());
    assert!(stats.spectral.expect("spectral stats").reused);
    assert_eq!(
        after - before,
        0,
        "warm Chebyshev solve allocated {} time(s); the bounds-cached path must be allocation-free",
        after - before
    );

    // Multigrid: grid large enough to engage both the SELL re-layout
    // (n ≥ 1024) and a multi-level hierarchy. The first solve builds
    // everything; warm V-cycles must be allocation-free.
    let (nx, ny, nz) = (16, 10, 8);
    let pg = poisson3d(nx, ny, nz);
    let pn = pg.n();
    let pb = vec![1.0; pn];
    let mut px = vec![0.0; pn];
    let mg_cfg = SolverConfig::new()
        .preconditioner(Precond::Multigrid)
        .grid_dims((nx, ny, nz))
        .threads(1)
        .record_history(false)
        .context("zero-alloc multigrid proof");
    let mut mg_ws = PcgWorkspace::with_capacity(pn);
    let warm = solve_sparse_into(&mut mg_ws, &pg, &pb, &mut px, &mg_cfg).expect("MG warm-up");
    assert!(warm.converged());
    let spec = warm.spectral.expect("MG spectral stats");
    assert!(!spec.reused);
    assert!(spec.levels >= 2, "hierarchy must actually coarsen");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats = solve_sparse_into(&mut mg_ws, &pg, &pb, &mut px, &mg_cfg).expect("warm MG solve");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(stats.converged());
    assert!(stats.spectral.expect("MG spectral stats").reused);
    assert_eq!(
        after - before,
        0,
        "warm multigrid solve allocated {} time(s); the hierarchy-cached path must be allocation-free",
        after - before
    );
}

fn poisson3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let idx = move |ix: usize, iy: usize, iz: usize| ix + nx * (iy + ny * iz);
    CsrMatrix::from_row_fn(nx * ny * nz, 2, move |i, row| {
        let ix = i % nx;
        let iy = (i / nx) % ny;
        let iz = i / (nx * ny);
        row.push((i, 6.0));
        if ix > 0 {
            row.push((idx(ix - 1, iy, iz), -1.0));
        }
        if ix + 1 < nx {
            row.push((idx(ix + 1, iy, iz), -1.0));
        }
        if iy > 0 {
            row.push((idx(ix, iy - 1, iz), -1.0));
        }
        if iy + 1 < ny {
            row.push((idx(ix, iy + 1, iz), -1.0));
        }
        if iz > 0 {
            row.push((idx(ix, iy, iz - 1), -1.0));
        }
        if iz + 1 < nz {
            row.push((idx(ix, iy, iz + 1), -1.0));
        }
    })
}

/// Small extension trait so the warm-up assertion reads cleanly without
/// unwrapping in the middle of the test.
trait FactorReused {
    fn stats_factorization_reused(&self) -> bool;
}

impl FactorReused for aeropack_solver::SolverStats {
    fn stats_factorization_reused(&self) -> bool {
        self.factorization.map(|f| f.reused).unwrap_or(false)
    }
}
