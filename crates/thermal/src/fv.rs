//! Three-dimensional structured finite-volume conduction solver — the
//! reproduction of the paper's FloTHERM role: board- and equipment-level
//! temperature fields with convective boundary conditions.
//!
//! The grid is a uniform structured box. Each cell carries an orthotropic
//! conductivity (needed for PCB laminates, which conduct ~100× better in
//! plane than through plane) and a volumetric heat source. The six
//! exterior faces carry boundary conditions. The (SPD) FV operator is
//! assembled into the shared [`aeropack_solver`] CSR backend and solved
//! with a preconditioned conjugate gradient; the transient path is
//! implicit Euler through [`TransientStepper`], which caches the matrix
//! across steps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use aeropack_solver::{
    solve_multi_rhs_with, solve_sparse_into, CsrMatrix, CsrPattern, PcgWorkspace, SolverConfig,
    SolverStats,
};
use aeropack_units::{Celsius, HeatFlux, HeatTransferCoeff, Power, ThermalConductivity};

use crate::error::ThermalError;

/// Grain hint for scenario sweeps whose per-point work is one FV steady
/// solve: the minimum scenarios each sweep worker must receive before
/// threads are spawned (see `aeropack_sweep::Sweep::grain_hint`). An FV
/// solve is heavy enough to parallelise, but each worker also pays to
/// warm its own solver workspace (and, under IC(0), to refactor), so
/// short power sweeps — the 12-point Fig 10 grid — run faster on the
/// serial fast path where one warm workspace serves every point.
pub const FV_SWEEP_GRAIN: usize = 8;

/// A uniform structured grid of `nx × ny × nz` cells over an
/// `lx × ly × lz` metre box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FvGrid {
    nx: usize,
    ny: usize,
    nz: usize,
    dx: f64,
    dy: f64,
    dz: f64,
}

impl FvGrid {
    /// Creates a grid.
    ///
    /// # Errors
    ///
    /// Returns an error for zero cell counts or non-positive dimensions.
    pub fn new(
        (lx, ly, lz): (f64, f64, f64),
        (nx, ny, nz): (usize, usize, usize),
    ) -> Result<Self, ThermalError> {
        if lx <= 0.0 || ly <= 0.0 || lz <= 0.0 {
            return Err(ThermalError::invalid("grid dimensions must be positive"));
        }
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(ThermalError::invalid(
                "grid needs at least one cell per axis",
            ));
        }
        Ok(Self {
            nx,
            ny,
            nz,
            dx: lx / nx as f64,
            dy: ly / ny as f64,
            dz: lz / nz as f64,
        })
    }

    /// Total cell count.
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Cell counts per axis.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Cell spacings per axis, metres.
    pub fn spacing(&self) -> (f64, f64, f64) {
        (self.dx, self.dy, self.dz)
    }

    /// Volume of one cell, m³.
    pub fn cell_volume(&self) -> f64 {
        self.dx * self.dy * self.dz
    }

    /// Linear index of cell `(i, j, k)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the indices exceed the grid.
    pub fn index(&self, i: usize, j: usize, k: usize) -> Result<usize, ThermalError> {
        if i >= self.nx || j >= self.ny || k >= self.nz {
            return Err(ThermalError::IndexOutOfRange {
                what: "cell",
                index: i.max(j).max(k),
                len: self.nx.max(self.ny).max(self.nz),
            });
        }
        Ok((k * self.ny + j) * self.nx + i)
    }

    /// Cell-centre coordinates, metres.
    ///
    /// # Errors
    ///
    /// Returns an error when the indices exceed the grid.
    pub fn center(&self, i: usize, j: usize, k: usize) -> Result<(f64, f64, f64), ThermalError> {
        self.index(i, j, k)?;
        Ok((
            (i as f64 + 0.5) * self.dx,
            (j as f64 + 0.5) * self.dy,
            (k as f64 + 0.5) * self.dz,
        ))
    }
}

/// One of the six exterior faces of the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    /// x = 0 face.
    XMin,
    /// x = lx face.
    XMax,
    /// y = 0 face.
    YMin,
    /// y = ly face.
    YMax,
    /// z = 0 face.
    ZMin,
    /// z = lz face.
    ZMax,
}

impl Face {
    /// All six faces.
    pub const ALL: [Face; 6] = [
        Face::XMin,
        Face::XMax,
        Face::YMin,
        Face::YMax,
        Face::ZMin,
        Face::ZMax,
    ];

    fn ordinal(self) -> usize {
        match self {
            Face::XMin => 0,
            Face::XMax => 1,
            Face::YMin => 2,
            Face::YMax => 3,
            Face::ZMin => 4,
            Face::ZMax => 5,
        }
    }
}

/// Boundary condition applied to a whole exterior face.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaceBc {
    /// No heat crosses the face.
    Adiabatic,
    /// The face surface is held at a temperature (cold plate, wedge-lock
    /// rail at rack temperature, …).
    FixedTemperature(Celsius),
    /// Film condition `q = h·(T_surf − T_amb)` (free or forced
    /// convection, or a linearised radiation coefficient).
    Convection {
        /// Film coefficient.
        h: HeatTransferCoeff,
        /// Fluid/ambient temperature.
        ambient: Celsius,
    },
    /// Uniform heat flux *into* the domain.
    UniformFlux(HeatFlux),
}

/// A finite-volume conduction model: grid + per-cell properties + face
/// boundary conditions.
///
/// # Examples
///
/// ```
/// use aeropack_thermal::{Face, FaceBc, FvGrid, FvModel};
/// use aeropack_materials::Material;
/// use aeropack_units::{Celsius, HeatTransferCoeff, Power};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 10 cm aluminium plate dissipating 20 W, convecting from its top.
/// let grid = FvGrid::new((0.1, 0.1, 0.002), (10, 10, 1))?;
/// let mut model = FvModel::new(grid, &Material::aluminum_6061());
/// model.add_power_box(Power::new(20.0), (3, 3, 0), (7, 7, 1))?;
/// model.set_face_bc(Face::ZMax, FaceBc::Convection {
///     h: HeatTransferCoeff::new(50.0),
///     ambient: Celsius::new(40.0),
/// });
/// let field = model.solve_steady()?;
/// assert!(field.max_temperature() > Celsius::new(40.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FvModel {
    grid: FvGrid,
    /// Orthotropic conductivity per cell, W/(m·K): `[kx, ky, kz]`.
    k: Vec<[f64; 3]>,
    /// Volumetric heat per cell, W (already integrated over the cell).
    source: Vec<f64>,
    /// Volumetric heat capacity ρ·cₚ per cell, J/(m³·K).
    rho_cp: Vec<f64>,
    bc: [FaceBc; 6],
    config: SolverConfig,
    stats: Mutex<Option<SolverStats>>,
    /// Cached symbolic CSR structure: the FV stencil sparsity depends
    /// only on the grid shape, so repeated assemblies (power sweeps,
    /// BC ablations) rebuild coefficient values only.
    pattern: Mutex<Option<CsrPattern>>,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
    workspace: Mutex<PcgWorkspace>,
}

impl Clone for FvModel {
    fn clone(&self) -> Self {
        Self {
            grid: self.grid,
            k: self.k.clone(),
            source: self.source.clone(),
            rho_cp: self.rho_cp.clone(),
            bc: self.bc,
            config: self.config.clone(),
            stats: Mutex::new(self.last_solve_stats()),
            // The symbolic pattern is shared (reference-counted index
            // arrays), so a primed model hands its structure to every
            // clone a sweep spawns; hit/miss counters start fresh so
            // per-scenario accounting stays per-scenario.
            pattern: Mutex::new(self.pattern.lock().expect("pattern lock poisoned").clone()),
            cache_hits: AtomicUsize::new(0),
            cache_misses: AtomicUsize::new(0),
            workspace: Mutex::new(PcgWorkspace::new()),
        }
    }
}

impl FvModel {
    /// Creates a model with every cell filled with `material` and all
    /// faces adiabatic.
    pub fn new(grid: FvGrid, material: &aeropack_materials::Material) -> Self {
        let k = material.thermal_conductivity.value();
        let rho_cp = material.density.value() * material.specific_heat.value();
        Self {
            grid,
            k: vec![[k, k, k]; grid.cell_count()],
            source: vec![0.0; grid.cell_count()],
            rho_cp: vec![rho_cp; grid.cell_count()],
            bc: [FaceBc::Adiabatic; 6],
            config: SolverConfig::new(),
            stats: Mutex::new(None),
            pattern: Mutex::new(None),
            cache_hits: AtomicUsize::new(0),
            cache_misses: AtomicUsize::new(0),
            workspace: Mutex::new(PcgWorkspace::new()),
        }
    }

    /// Overrides the solver configuration (preconditioner, tolerance,
    /// thread count) used by the steady and transient solves.
    pub fn set_solver_config(&mut self, config: SolverConfig) {
        self.config = config;
    }

    /// The active solver configuration.
    pub fn solver_config(&self) -> &SolverConfig {
        &self.config
    }

    /// Statistics of the most recent steady solve on this model, if
    /// any.
    pub fn last_solve_stats(&self) -> Option<SolverStats> {
        self.stats.lock().expect("stats lock poisoned").clone()
    }

    /// The grid.
    pub fn grid(&self) -> &FvGrid {
        &self.grid
    }

    /// Fills the half-open cell box `[lo, hi)` with a material.
    ///
    /// # Errors
    ///
    /// Returns an error if the box exceeds the grid or is empty.
    pub fn fill_box(
        &mut self,
        material: &aeropack_materials::Material,
        lo: (usize, usize, usize),
        hi: (usize, usize, usize),
    ) -> Result<(), ThermalError> {
        let k = material.thermal_conductivity.value();
        self.fill_box_orthotropic(
            [
                ThermalConductivity::new(k),
                ThermalConductivity::new(k),
                ThermalConductivity::new(k),
            ],
            material.density.value() * material.specific_heat.value(),
            lo,
            hi,
        )
    }

    /// Fills the half-open cell box `[lo, hi)` with an orthotropic
    /// conductivity (PCB laminates) and a volumetric heat capacity.
    ///
    /// # Errors
    ///
    /// Returns an error if the box exceeds the grid or is empty.
    pub fn fill_box_orthotropic(
        &mut self,
        k: [ThermalConductivity; 3],
        rho_cp: f64,
        lo: (usize, usize, usize),
        hi: (usize, usize, usize),
    ) -> Result<(), ThermalError> {
        self.check_box(lo, hi)?;
        if k.iter().any(|ki| ki.value() <= 0.0) || rho_cp <= 0.0 {
            return Err(ThermalError::invalid(
                "material properties must be positive",
            ));
        }
        for kk in lo.2..hi.2 {
            for j in lo.1..hi.1 {
                for i in lo.0..hi.0 {
                    let c = self.grid.index(i, j, kk)?;
                    self.k[c] = [k[0].value(), k[1].value(), k[2].value()];
                    self.rho_cp[c] = rho_cp;
                }
            }
        }
        Ok(())
    }

    /// Distributes a total power uniformly over the half-open cell box
    /// `[lo, hi)` (cumulative with previous sources).
    ///
    /// # Errors
    ///
    /// Returns an error if the box exceeds the grid or is empty.
    pub fn add_power_box(
        &mut self,
        power: Power,
        lo: (usize, usize, usize),
        hi: (usize, usize, usize),
    ) -> Result<(), ThermalError> {
        self.check_box(lo, hi)?;
        let cells = (hi.0 - lo.0) * (hi.1 - lo.1) * (hi.2 - lo.2);
        let per_cell = power.value() / cells as f64;
        for kk in lo.2..hi.2 {
            for j in lo.1..hi.1 {
                for i in lo.0..hi.0 {
                    let c = self.grid.index(i, j, kk)?;
                    self.source[c] += per_cell;
                }
            }
        }
        Ok(())
    }

    /// Total source power in the model.
    pub fn total_power(&self) -> Power {
        Power::new(self.source.iter().sum())
    }

    /// Sets the boundary condition of one exterior face.
    pub fn set_face_bc(&mut self, face: Face, bc: FaceBc) {
        self.bc[face.ordinal()] = bc;
    }

    fn check_box(
        &self,
        lo: (usize, usize, usize),
        hi: (usize, usize, usize),
    ) -> Result<(), ThermalError> {
        let (nx, ny, nz) = self.grid.shape();
        if hi.0 > nx || hi.1 > ny || hi.2 > nz {
            return Err(ThermalError::invalid(format!(
                "box upper corner {hi:?} exceeds grid {:?}",
                self.grid.shape()
            )));
        }
        if lo.0 >= hi.0 || lo.1 >= hi.1 || lo.2 >= hi.2 {
            return Err(ThermalError::invalid("cell box is empty"));
        }
        Ok(())
    }

    /// Harmonic-mean conductance between cell `c` and its neighbour `d`
    /// along `axis` (0 = x, 1 = y, 2 = z).
    fn face_conductance(&self, c: usize, d: usize, axis: usize) -> f64 {
        let (dx, dy, dz) = self.grid.spacing();
        let (delta, area) = match axis {
            0 => (dx, dy * dz),
            1 => (dy, dx * dz),
            _ => (dz, dx * dy),
        };
        let k1 = self.k[c][axis];
        let k2 = self.k[d][axis];
        area / (delta / (2.0 * k1) + delta / (2.0 * k2))
    }

    /// Half-cell conductance from cell `c` to its exterior surface along
    /// `axis`.
    fn half_conductance(&self, c: usize, axis: usize) -> f64 {
        let (dx, dy, dz) = self.grid.spacing();
        let (delta, area) = match axis {
            0 => (dx, dy * dz),
            1 => (dy, dx * dz),
            _ => (dz, dx * dy),
        };
        2.0 * self.k[c][axis] * area / delta
    }

    fn face_area(&self, axis: usize) -> f64 {
        let (dx, dy, dz) = self.grid.spacing();
        match axis {
            0 => dy * dz,
            1 => dx * dz,
            _ => dx * dy,
        }
    }

    /// Assembles the FV operator: per-cell neighbour conductances,
    /// boundary diagonal additions and the right-hand side.
    fn assemble(&self) -> Assembled {
        self.assemble_scaled(1.0)
    }

    /// [`FvModel::assemble`] with every heat source multiplied by
    /// `scale` while it is copied into the right-hand side. `scale = 1`
    /// takes the exact unscaled path, and any other factor produces the
    /// same bits as [`FvModel::scale_sources`] followed by a plain
    /// assembly — the conductance terms never see the sources.
    fn assemble_scaled(&self, scale: f64) -> Assembled {
        let (nx, ny, nz) = self.grid.shape();
        let n = self.grid.cell_count();
        let mut diag = vec![0.0f64; n];
        let mut rhs = if scale == 1.0 {
            self.source.clone()
        } else {
            self.source.iter().map(|s| s * scale).collect()
        };
        // Interior conductances, stored for the +x, +y, +z neighbours.
        let mut gxp = vec![0.0f64; n];
        let mut gyp = vec![0.0f64; n];
        let mut gzp = vec![0.0f64; n];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = (k * ny + j) * nx + i;
                    if i + 1 < nx {
                        let d = c + 1;
                        let g = self.face_conductance(c, d, 0);
                        gxp[c] = g;
                        diag[c] += g;
                        diag[d] += g;
                    }
                    if j + 1 < ny {
                        let d = c + nx;
                        let g = self.face_conductance(c, d, 1);
                        gyp[c] = g;
                        diag[c] += g;
                        diag[d] += g;
                    }
                    if k + 1 < nz {
                        let d = c + nx * ny;
                        let g = self.face_conductance(c, d, 2);
                        gzp[c] = g;
                        diag[c] += g;
                        diag[d] += g;
                    }
                    // Boundary faces.
                    let faces = [
                        (i == 0, Face::XMin, 0),
                        (i + 1 == nx, Face::XMax, 0),
                        (j == 0, Face::YMin, 1),
                        (j + 1 == ny, Face::YMax, 1),
                        (k == 0, Face::ZMin, 2),
                        (k + 1 == nz, Face::ZMax, 2),
                    ];
                    for (on_face, face, axis) in faces {
                        if !on_face {
                            continue;
                        }
                        match self.bc[face.ordinal()] {
                            FaceBc::Adiabatic => {}
                            FaceBc::FixedTemperature(t) => {
                                let g = self.half_conductance(c, axis);
                                diag[c] += g;
                                rhs[c] += g * t.value();
                            }
                            FaceBc::Convection { h, ambient } => {
                                let area = self.face_area(axis);
                                let g_half = self.half_conductance(c, axis);
                                let g_conv = h.value() * area;
                                let g = g_half * g_conv / (g_half + g_conv);
                                diag[c] += g;
                                rhs[c] += g * ambient.value();
                            }
                            FaceBc::UniformFlux(q) => {
                                rhs[c] += q.value() * self.face_area(axis);
                            }
                        }
                    }
                }
            }
        }
        Assembled {
            diag,
            rhs,
            gxp,
            gyp,
            gzp,
            nx,
            ny,
            nz,
        }
    }

    /// Assembles the operator into shared CSR storage, with an optional
    /// per-cell diagonal addition (the transient capacity term). Rows
    /// are built in parallel across the configured thread count.
    ///
    /// The symbolic structure (row pointers and column indices) depends
    /// only on the grid shape, so it is computed once and cached: every
    /// later assembly — a new power level, a changed film coefficient,
    /// the transient capacity matrix — refills coefficient values over
    /// the cached pattern, skipping the per-row sort and merge. The
    /// numeric result is bitwise identical either way.
    fn csr(&self, asm: &Assembled, extra_diag: Option<&[f64]>) -> CsrMatrix {
        let row_fn = self.row_fn(asm, extra_diag);
        let n = self.grid.cell_count();
        let threads = self.config.get_threads();
        let mut cached = self.pattern.lock().expect("pattern lock poisoned");
        if let Some(pattern) = cached.as_ref() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            aeropack_obs::counter!("thermal.fv.pattern_cache.hits");
            CsrMatrix::from_pattern_row_fn(pattern, threads, row_fn)
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            aeropack_obs::counter!("thermal.fv.pattern_cache.misses");
            let matrix = CsrMatrix::from_row_fn(n, threads, row_fn);
            *cached = Some(matrix.pattern());
            matrix
        }
    }

    /// Symbolic-cache counters for this model instance:
    /// `(hits, misses)` — assemblies that reused the cached CSR pattern
    /// vs. full symbolic builds.
    pub fn pattern_cache_stats(&self) -> (usize, usize) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Multiplies every heat source by `factor` — the cheap way a power
    /// sweep re-targets total dissipation without rebuilding the source
    /// layout.
    pub fn scale_sources(&mut self, factor: f64) {
        for s in &mut self.source {
            *s *= factor;
        }
    }

    /// The per-row coefficient callback shared by the full and
    /// pattern-cached assembly paths (identical push order keeps the
    /// two bitwise interchangeable).
    fn row_fn<'a>(
        &self,
        asm: &'a Assembled,
        extra_diag: Option<&'a [f64]>,
    ) -> impl Fn(usize, &mut Vec<(usize, f64)>) + Sync + 'a {
        let (nx, ny, nz) = (asm.nx, asm.ny, asm.nz);
        move |c, row| {
            let i = c % nx;
            let j = (c / nx) % ny;
            let k = c / (nx * ny);
            if k > 0 {
                row.push((c - nx * ny, -asm.gzp[c - nx * ny]));
            }
            if j > 0 {
                row.push((c - nx, -asm.gyp[c - nx]));
            }
            if i > 0 {
                row.push((c - 1, -asm.gxp[c - 1]));
            }
            let extra = extra_diag.map_or(0.0, |e| e[c]);
            row.push((c, asm.diag[c] + extra));
            if i + 1 < nx {
                row.push((c + 1, -asm.gxp[c]));
            }
            if j + 1 < ny {
                row.push((c + nx, -asm.gyp[c]));
            }
            if k + 1 < nz {
                row.push((c + nx * ny, -asm.gzp[c]));
            }
        }
    }

    /// Solves the steady-state temperature field.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when no face provides a
    /// temperature reference (all adiabatic/flux), or a convergence
    /// failure from the iterative solver.
    pub fn solve_steady(&self) -> Result<FvField, ThermalError> {
        self.solve_steady_scaled(1.0)
    }

    /// Solves the steady field with every heat source multiplied by
    /// `factor`, without mutating the model. This is the power-sweep
    /// entry point: where a sweep over `scale_sources` must clone the
    /// model per point, `solve_steady_scaled` shares one model — and
    /// therefore one cached CSR pattern, one warm [`PcgWorkspace`] and
    /// (under IC(0)) one cached reordering — across the whole grid.
    /// The result is bitwise identical to cloning, calling
    /// [`FvModel::scale_sources`] and solving.
    ///
    /// # Errors
    ///
    /// As [`FvModel::solve_steady`].
    pub fn solve_steady_scaled(&self, factor: f64) -> Result<FvField, ThermalError> {
        let _span = aeropack_obs::span!("thermal.fv.solve_steady", cells = self.grid.cell_count());
        // The operator is singular (constant null space) unless at least
        // one face pins the temperature level.
        let has_reference = self
            .bc
            .iter()
            .any(|bc| matches!(bc, FaceBc::FixedTemperature(_) | FaceBc::Convection { .. }));
        if !has_reference {
            return Err(ThermalError::SingularSystem {
                context: "finite-volume steady solve",
            });
        }
        let asm = self.assemble_scaled(factor);
        if asm.diag.iter().any(|&d| d <= 0.0) {
            return Err(ThermalError::SingularSystem {
                context: "finite-volume steady solve",
            });
        }
        let a = self.csr(&asm, None);
        let cfg = self
            .config
            .clone()
            .context("finite-volume steady solve")
            .grid_dims(self.grid.shape());
        let mut temperatures = vec![0.0; self.grid.cell_count()];
        let stats = {
            let mut ws = self.workspace.lock().expect("workspace lock poisoned");
            solve_sparse_into(&mut ws, &a, &asm.rhs, &mut temperatures, &cfg)?
        };
        *self.stats.lock().expect("stats lock poisoned") = Some(stats);
        Ok(FvField {
            grid: self.grid,
            temperatures,
        })
    }

    /// Solves the steady field for several source scales in one
    /// batched call: the operator is assembled and the preconditioner
    /// set up once, and every scale's right-hand side goes through
    /// [`solve_multi_rhs_with`](aeropack_solver::solve_multi_rhs_with)
    /// against the shared matrix. Each returned field is bitwise
    /// identical to the corresponding [`FvModel::solve_steady_scaled`]
    /// call on the same model — both paths start PCG from zero over
    /// the same warm [`PcgWorkspace`] — which is the determinism
    /// contract the `aeropack-serve` request coalescer relies on.
    ///
    /// # Errors
    ///
    /// As [`FvModel::solve_steady`]; the first failing scale aborts
    /// the batch.
    pub fn solve_steady_multi(&self, factors: &[f64]) -> Result<Vec<FvField>, ThermalError> {
        if factors.is_empty() {
            return Ok(Vec::new());
        }
        let _span = aeropack_obs::span!("thermal.fv.solve_multi", batch = factors.len());
        let has_reference = self
            .bc
            .iter()
            .any(|bc| matches!(bc, FaceBc::FixedTemperature(_) | FaceBc::Convection { .. }));
        if !has_reference {
            return Err(ThermalError::SingularSystem {
                context: "finite-volume steady solve",
            });
        }
        let n = self.grid.cell_count();
        let asm = self.assemble_scaled(factors[0]);
        if asm.diag.iter().any(|&d| d <= 0.0) {
            return Err(ThermalError::SingularSystem {
                context: "finite-volume steady solve",
            });
        }
        let a = self.csr(&asm, None);
        let cfg = self
            .config
            .clone()
            .context("finite-volume steady solve")
            .grid_dims(self.grid.shape());
        // Only the right-hand side depends on the scale (sources scale,
        // conductances and boundary terms do not), so later scales
        // re-run the cheap O(n) assembly for their RHS only.
        let mut rhs_block = Vec::with_capacity(n * factors.len());
        rhs_block.extend_from_slice(&asm.rhs);
        for &factor in &factors[1..] {
            rhs_block.extend_from_slice(&self.assemble_scaled(factor).rhs);
        }
        let solutions = {
            let mut ws = self.workspace.lock().expect("workspace lock poisoned");
            solve_multi_rhs_with(&mut ws, &a, &rhs_block, &cfg)?
        };
        aeropack_obs::counter!("thermal.fv.multi_rhs.batches");
        aeropack_obs::counter!("thermal.fv.multi_rhs.solves", factors.len());
        let mut fields = Vec::with_capacity(solutions.len());
        let mut last_stats = None;
        for sol in solutions {
            last_stats = Some(sol.stats);
            fields.push(FvField {
                grid: self.grid,
                temperatures: sol.x,
            });
        }
        *self.stats.lock().expect("stats lock poisoned") = last_stats;
        Ok(fields)
    }

    /// Canonical 64-bit content fingerprint of this model: grid shape
    /// and spacing, per-cell conductivities, sources and capacities,
    /// face boundary conditions, and the solver settings that change
    /// the computed bits (method, preconditioner, reordering,
    /// tolerance). Two models built through different call sequences
    /// that end in the same per-cell state — e.g. the same power boxes
    /// added in a different order — fingerprint identically, which is
    /// what makes the hash usable as a content-addressed result-cache
    /// key. Thread count and context strings are excluded: they do not
    /// affect the solution values.
    ///
    /// # Panics
    ///
    /// Panics if any stored property is NaN (see
    /// [`Fingerprint::write_f64`](aeropack_solver::Fingerprint)).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = aeropack_solver::Fingerprint::new("thermal.fv.model");
        let (nx, ny, nz) = self.grid.shape();
        fp.write_usize(nx);
        fp.write_usize(ny);
        fp.write_usize(nz);
        let (dx, dy, dz) = self.grid.spacing();
        fp.write_f64(dx);
        fp.write_f64(dy);
        fp.write_f64(dz);
        fp.write_usize(self.k.len());
        for k in &self.k {
            fp.write_f64(k[0]);
            fp.write_f64(k[1]);
            fp.write_f64(k[2]);
        }
        fp.write_f64s(&self.source);
        fp.write_f64s(&self.rho_cp);
        for bc in &self.bc {
            match bc {
                FaceBc::Adiabatic => fp.write_u8(0),
                FaceBc::FixedTemperature(t) => {
                    fp.write_u8(1);
                    fp.write_f64(t.value());
                }
                FaceBc::Convection { h, ambient } => {
                    fp.write_u8(2);
                    fp.write_f64(h.value());
                    fp.write_f64(ambient.value());
                }
                FaceBc::UniformFlux(q) => {
                    fp.write_u8(3);
                    fp.write_f64(q.value());
                }
            }
        }
        fp.write_u8(self.config.get_method() as u8);
        fp.write_u8(self.config.get_preconditioner().code());
        fp.write_usize(self.config.get_preconditioner().degree());
        fp.write_f64(self.config.get_tolerance());
        fp.finish()
    }

    /// Assembles the steady conduction operator `A` (interior
    /// conductances plus boundary-condition diagonal additions, no
    /// capacity term) and its load vector `b`, so that the steady
    /// problem reads `A·T = b` and the semi-discrete transient problem
    /// reads `C·dT/dt = b − A·T` with `C` from [`FvModel::capacities`].
    ///
    /// This is the entry point custom time integrators (the
    /// `aeropack-mission` adaptive driver) build on: the symbolic CSR
    /// structure comes from the same cached pattern as the steady and
    /// stepper paths, so repeated assemblies after boundary-condition
    /// updates refill values only.
    pub fn assemble_operator(&self) -> (CsrMatrix, Vec<f64>) {
        let asm = self.assemble();
        let a = self.csr(&asm, None);
        (a, asm.rhs)
    }

    /// Per-cell integrated heat sources, W — the source layout that
    /// [`FvModel::scale_sources`] rescales. Transient drivers snapshot
    /// this once and compose time-varying right-hand sides themselves.
    pub fn sources(&self) -> &[f64] {
        &self.source
    }

    /// Per-cell heat capacities `ρ·cₚ·V` in J/K — the diagonal capacity
    /// matrix `C` of the semi-discrete transient problem.
    pub fn capacities(&self) -> Vec<f64> {
        let vol = self.grid.cell_volume();
        self.rho_cp.iter().map(|&rc| rc * vol).collect()
    }

    /// Wraps raw per-cell temperatures (grid order, x fastest, °C) into
    /// a field on this model's grid — the inverse of
    /// [`FvField::temperatures`], used to restore checkpointed states.
    ///
    /// # Errors
    ///
    /// Returns an error when the length does not match the grid.
    pub fn field_from_temperatures(&self, temperatures: Vec<f64>) -> Result<FvField, ThermalError> {
        if temperatures.len() != self.grid.cell_count() {
            return Err(ThermalError::invalid("field does not match this grid"));
        }
        Ok(FvField {
            grid: self.grid,
            temperatures,
        })
    }

    /// Creates an implicit-Euler transient stepper starting from
    /// `initial`. The system matrix (conduction plus capacity terms) is
    /// assembled once here and reused by every [`TransientStepper::step`].
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive step or a mismatched field.
    pub fn transient_stepper(
        &self,
        initial: FvField,
        dt_seconds: f64,
    ) -> Result<TransientStepper, ThermalError> {
        if dt_seconds <= 0.0 {
            return Err(ThermalError::invalid("time step must be positive"));
        }
        if initial.temperatures.len() != self.grid.cell_count() {
            return Err(ThermalError::invalid("field does not match this grid"));
        }
        let asm = self.assemble();
        let vol = self.grid.cell_volume();
        let cap: Vec<f64> = self
            .rho_cp
            .iter()
            .map(|&rc| rc * vol / dt_seconds)
            .collect();
        let matrix = self.csr(&asm, Some(&cap));
        let n = self.grid.cell_count();
        Ok(TransientStepper {
            matrix,
            base_rhs: asm.rhs,
            cap,
            rhs: vec![0.0; n],
            workspace: PcgWorkspace::with_capacity(n),
            field: initial,
            config: self
                .config
                .clone()
                .context("finite-volume transient step")
                .grid_dims(self.grid.shape()),
            stats: None,
        })
    }

    /// Creates a uniform-temperature field for transient initial
    /// conditions.
    pub fn uniform_field(&self, temperature: Celsius) -> FvField {
        FvField {
            grid: self.grid,
            temperatures: vec![temperature.value(); self.grid.cell_count()],
        }
    }

    /// Heat leaving the domain through `face` for a solved field,
    /// positive outward. Used for energy-balance verification.
    ///
    /// # Errors
    ///
    /// Returns an error if the field does not match the grid.
    pub fn boundary_heat(&self, field: &FvField, face: Face) -> Result<Power, ThermalError> {
        if field.temperatures.len() != self.grid.cell_count() {
            return Err(ThermalError::invalid("field does not match this grid"));
        }
        let (nx, ny, nz) = self.grid.shape();
        let mut q = 0.0;
        let mut visit = |c: usize, axis: usize| {
            let t = field.temperatures[c];
            match self.bc[face.ordinal()] {
                FaceBc::Adiabatic => {}
                FaceBc::FixedTemperature(tf) => {
                    q += self.half_conductance(c, axis) * (t - tf.value());
                }
                FaceBc::Convection { h, ambient } => {
                    let area = self.face_area(axis);
                    let g_half = self.half_conductance(c, axis);
                    let g_conv = h.value() * area;
                    let g = g_half * g_conv / (g_half + g_conv);
                    q += g * (t - ambient.value());
                }
                FaceBc::UniformFlux(flux) => {
                    q -= flux.value() * self.face_area(axis);
                }
            }
        };
        match face {
            Face::XMin | Face::XMax => {
                let i = if face == Face::XMin { 0 } else { nx - 1 };
                for k in 0..nz {
                    for j in 0..ny {
                        visit((k * ny + j) * nx + i, 0);
                    }
                }
            }
            Face::YMin | Face::YMax => {
                let j = if face == Face::YMin { 0 } else { ny - 1 };
                for k in 0..nz {
                    for i in 0..nx {
                        visit((k * ny + j) * nx + i, 1);
                    }
                }
            }
            Face::ZMin | Face::ZMax => {
                let k = if face == Face::ZMin { 0 } else { nz - 1 };
                for j in 0..ny {
                    for i in 0..nx {
                        visit((k * ny + j) * nx + i, 2);
                    }
                }
            }
        }
        Ok(Power::new(q))
    }
}

/// Pre-assembled FV operator data.
struct Assembled {
    diag: Vec<f64>,
    rhs: Vec<f64>,
    gxp: Vec<f64>,
    gyp: Vec<f64>,
    gzp: Vec<f64>,
    nx: usize,
    ny: usize,
    nz: usize,
}

/// An implicit-Euler transient integrator over a fixed [`FvModel`] and
/// step length. The system matrix is assembled (in parallel) once at
/// construction and reused by every step, which is what makes long
/// thermal-shock and warm-up runs cheap.
///
/// # Examples
///
/// ```
/// use aeropack_thermal::{Face, FaceBc, FvGrid, FvModel};
/// use aeropack_materials::Material;
/// use aeropack_units::{Celsius, HeatTransferCoeff};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = FvGrid::new((0.02, 0.02, 0.02), (2, 2, 2))?;
/// let mut model = FvModel::new(grid, &Material::copper());
/// model.set_face_bc(Face::ZMax, FaceBc::Convection {
///     h: HeatTransferCoeff::new(50.0),
///     ambient: Celsius::new(0.0),
/// });
/// let mut stepper = model.transient_stepper(model.uniform_field(Celsius::new(100.0)), 10.0)?;
/// for _ in 0..20 {
///     stepper.step()?;
/// }
/// assert!(stepper.field().mean_temperature() < Celsius::new(100.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientStepper {
    matrix: CsrMatrix,
    base_rhs: Vec<f64>,
    cap: Vec<f64>,
    rhs: Vec<f64>,
    workspace: PcgWorkspace,
    field: FvField,
    config: SolverConfig,
    stats: Option<SolverStats>,
}

impl TransientStepper {
    /// Advances the state by one implicit-Euler step, returning the new
    /// field.
    ///
    /// The right-hand side is refreshed in place and the solve runs
    /// over the stepper's own [`PcgWorkspace`], so after the first step
    /// a long transient run performs no per-step heap allocation
    /// (beyond the residual history, if recording is enabled on the
    /// model's [`SolverConfig`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the cached linear system fails to solve.
    pub fn step(&mut self) -> Result<&FvField, ThermalError> {
        for (dst, ((r, c), t)) in self.rhs.iter_mut().zip(
            self.base_rhs
                .iter()
                .zip(&self.cap)
                .zip(&self.field.temperatures),
        ) {
            *dst = r + c * t;
        }
        let stats = solve_sparse_into(
            &mut self.workspace,
            &self.matrix,
            &self.rhs,
            &mut self.field.temperatures,
            &self.config,
        )?;
        aeropack_obs::counter!("solver.transient.steps");
        aeropack_obs::counter!("solver.transient.iterations", stats.iterations);
        self.stats = Some(stats);
        Ok(&self.field)
    }

    /// The current temperature field.
    pub fn field(&self) -> &FvField {
        &self.field
    }

    /// Consumes the stepper, yielding the current field.
    pub fn into_field(self) -> FvField {
        self.field
    }

    /// Statistics of the most recent step, if any.
    pub fn last_solve_stats(&self) -> Option<SolverStats> {
        self.stats.clone()
    }
}

/// A solved (or initial) temperature field over an [`FvGrid`].
#[derive(Debug, Clone)]
pub struct FvField {
    grid: FvGrid,
    temperatures: Vec<f64>,
}

impl FvField {
    /// Temperature of cell `(i, j, k)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the indices exceed the grid.
    pub fn at(&self, i: usize, j: usize, k: usize) -> Result<Celsius, ThermalError> {
        Ok(Celsius::new(self.temperatures[self.grid.index(i, j, k)?]))
    }

    /// The raw per-cell temperatures in grid order (x fastest), °C —
    /// the whole-field view that comparisons and postprocessors need
    /// without `cell_count` calls through [`FvField::at`].
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Minimum, maximum and volume-average temperature in one pass over
    /// the field — the accessor to use when more than one of the three
    /// is needed (the individual getters below delegate here, so the
    /// field is never scanned more than once per call).
    ///
    /// # Errors
    ///
    /// Returns an error for a degenerate field: no cells (min/max of an
    /// empty set is undefined — the old behaviour returned ±∞ and a NaN
    /// mean) or any non-finite temperature (`f64::min`/`max` silently
    /// skip NaN, so a poisoned field would otherwise report a healthy
    /// min/max around a NaN mean).
    pub fn summary(&self) -> Result<FieldSummary, ThermalError> {
        if self.temperatures.is_empty() {
            return Err(ThermalError::invalid(
                "cannot summarise an empty temperature field",
            ));
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &t in &self.temperatures {
            if !t.is_finite() {
                return Err(ThermalError::invalid(
                    "temperature field contains a non-finite value",
                ));
            }
            min = min.min(t);
            max = max.max(t);
            sum += t;
        }
        Ok(FieldSummary {
            min: Celsius::new(min),
            max: Celsius::new(max),
            mean: Celsius::new(sum / self.temperatures.len() as f64),
        })
    }

    /// Number of cells in the field.
    pub fn cell_count(&self) -> usize {
        self.temperatures.len()
    }

    /// The hottest cell temperature (NaN for a degenerate field — use
    /// [`FvField::summary`] for checked access).
    pub fn max_temperature(&self) -> Celsius {
        self.summary().map_or(Celsius::new(f64::NAN), |s| s.max)
    }

    /// The coldest cell temperature (NaN for a degenerate field — use
    /// [`FvField::summary`] for checked access).
    pub fn min_temperature(&self) -> Celsius {
        self.summary().map_or(Celsius::new(f64::NAN), |s| s.min)
    }

    /// Volume-average temperature (NaN for a degenerate field — use
    /// [`FvField::summary`] for checked access).
    pub fn mean_temperature(&self) -> Celsius {
        self.summary().map_or(Celsius::new(f64::NAN), |s| s.mean)
    }

    /// The grid this field lives on.
    pub fn grid(&self) -> &FvGrid {
        &self.grid
    }
}

/// Single-pass field statistics returned by [`FvField::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldSummary {
    /// The coldest cell temperature.
    pub min: Celsius,
    /// The hottest cell temperature.
    pub max: Celsius,
    /// Volume-average temperature.
    pub mean: Celsius,
}

impl FieldSummary {
    /// Max-to-min spread across the field.
    pub fn spread(&self) -> f64 {
        self.max.value() - self.min.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeropack_materials::Material;

    #[test]
    fn slab_linear_profile() {
        // 1-D slab, fixed 100 °C / 0 °C ends: linear profile, exact flux
        // q = k·A·ΔT/L.
        let grid = FvGrid::new((0.1, 0.01, 0.01), (20, 1, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(100.0)));
        model.set_face_bc(Face::XMax, FaceBc::FixedTemperature(Celsius::new(0.0)));
        let field = model.solve_steady().unwrap();
        // Cell centres at x = (i+0.5)·dx → T = 100·(1 − x/L).
        for i in 0..20 {
            let x = (i as f64 + 0.5) * 0.005;
            let exact = 100.0 * (1.0 - x / 0.1);
            let got = field.at(i, 0, 0).unwrap().value();
            assert!((got - exact).abs() < 1e-6, "i={i}: {got} vs {exact}");
        }
        let q = model.boundary_heat(&field, Face::XMax).unwrap();
        let exact_q = 167.0 * 1e-4 * 100.0 / 0.1;
        assert!((q.value() - exact_q).abs() < 1e-6 * exact_q);
    }

    #[test]
    fn slab_with_source_is_parabolic() {
        // Uniform source, both ends at 0 °C: T_max = q'''·L²/(8k) at
        // centre.
        let grid = FvGrid::new((0.1, 0.01, 0.01), (40, 1, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(0.0)));
        model.set_face_bc(Face::XMax, FaceBc::FixedTemperature(Celsius::new(0.0)));
        let total = Power::new(50.0);
        model.add_power_box(total, (0, 0, 0), (40, 1, 1)).unwrap();
        let field = model.solve_steady().unwrap();
        let volume = 0.1 * 0.01 * 0.01;
        let qv = total.value() / volume;
        let exact = qv * 0.1 * 0.1 / (8.0 * 167.0);
        let got = field.max_temperature().value();
        assert!(
            (got - exact).abs() / exact < 0.01,
            "parabola peak {got} vs {exact}"
        );
    }

    #[test]
    fn convection_matches_series_resistance() {
        // Flux in at XMin, convection at XMax: the whole 1-D path is
        // R = L/(kA) + 1/(hA).
        let grid = FvGrid::new((0.05, 0.02, 0.02), (10, 1, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::copper());
        let q_in = 5.0; // W
        let area = 0.02 * 0.02;
        model.set_face_bc(Face::XMin, FaceBc::UniformFlux(HeatFlux::new(q_in / area)));
        model.set_face_bc(
            Face::XMax,
            FaceBc::Convection {
                h: HeatTransferCoeff::new(200.0),
                ambient: Celsius::new(30.0),
            },
        );
        let field = model.solve_steady().unwrap();
        // Hot-face *cell-centre* temperature: 30 + q·(1/(hA) + (L−dx/2)/(kA)).
        let dx = 0.005;
        let r = 1.0 / (200.0 * area) + (0.05 - dx / 2.0) / (391.0 * area);
        let exact = 30.0 + q_in * r;
        let got = field.at(0, 0, 0).unwrap().value();
        assert!((got - exact).abs() < 1e-3, "{got} vs {exact}");
    }

    #[test]
    fn energy_conservation_3d() {
        let grid = FvGrid::new((0.06, 0.04, 0.01), (6, 4, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(12.0), (1, 1, 0), (3, 3, 1))
            .unwrap();
        model
            .add_power_box(Power::new(8.0), (4, 2, 1), (6, 4, 2))
            .unwrap();
        model.set_face_bc(
            Face::ZMax,
            FaceBc::Convection {
                h: HeatTransferCoeff::new(25.0),
                ambient: Celsius::new(20.0),
            },
        );
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(20.0)));
        let field = model.solve_steady().unwrap();
        let q_out: f64 = Face::ALL
            .iter()
            .map(|&f| model.boundary_heat(&field, f).unwrap().value())
            .sum();
        assert!((q_out - 20.0).abs() < 1e-6 * 20.0, "out {q_out} vs in 20 W");
    }

    #[test]
    fn orthotropic_pcb_spreads_in_plane() {
        // Same board, isotropic resin vs orthotropic laminate: laminate
        // spreads a hot spot much better in plane.
        let grid = FvGrid::new((0.1, 0.1, 0.0016), (20, 20, 1)).unwrap();
        let hot = |model: &mut FvModel| {
            model
                .add_power_box(Power::new(5.0), (9, 9, 0), (11, 11, 1))
                .unwrap();
            model.set_face_bc(
                Face::ZMax,
                FaceBc::Convection {
                    h: HeatTransferCoeff::new(15.0),
                    ambient: Celsius::new(25.0),
                },
            );
            model.set_face_bc(
                Face::ZMin,
                FaceBc::Convection {
                    h: HeatTransferCoeff::new(15.0),
                    ambient: Celsius::new(25.0),
                },
            );
        };
        let mut resin = FvModel::new(grid, &Material::fr4());
        hot(&mut resin);
        let mut laminate = FvModel::new(grid, &Material::fr4());
        laminate
            .fill_box_orthotropic(
                [
                    ThermalConductivity::new(40.0),
                    ThermalConductivity::new(40.0),
                    ThermalConductivity::new(0.35),
                ],
                1.85e6,
                (0, 0, 0),
                (20, 20, 1),
            )
            .unwrap();
        hot(&mut laminate);
        let t_resin = resin.solve_steady().unwrap().max_temperature();
        let t_lam = laminate.solve_steady().unwrap().max_temperature();
        assert!(
            t_resin.value() > t_lam.value() + 20.0,
            "copper planes must cut the hot spot: {t_resin} vs {t_lam}"
        );
    }

    #[test]
    fn no_reference_is_singular() {
        let grid = FvGrid::new((0.1, 0.1, 0.01), (4, 4, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(1.0), (0, 0, 0), (4, 4, 1))
            .unwrap();
        assert!(matches!(
            model.solve_steady(),
            Err(ThermalError::SingularSystem { .. })
        ));
    }

    #[test]
    fn transient_lumped_cooling_matches_exponential() {
        // Small Biot copper block cooling by convection: T(t) follows
        // exp(−t/τ) with τ = ρcV/(hA).
        let grid = FvGrid::new((0.02, 0.02, 0.02), (2, 2, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::copper());
        let h = 50.0;
        model.set_face_bc(
            Face::ZMax,
            FaceBc::Convection {
                h: HeatTransferCoeff::new(h),
                ambient: Celsius::new(0.0),
            },
        );
        let rho_cp = 8940.0 * 385.0;
        let volume = 0.02f64.powi(3);
        let area = 0.02 * 0.02;
        let tau = rho_cp * volume / (h * area);
        let dt = tau / 200.0;
        let steps = 100;
        let mut stepper = model
            .transient_stepper(model.uniform_field(Celsius::new(100.0)), dt)
            .unwrap();
        for _ in 0..steps {
            stepper.step().unwrap();
        }
        assert!(stepper.last_solve_stats().is_some());
        let t_num = stepper.field().mean_temperature().value();
        let t_exact = 100.0 * (-(steps as f64) * dt / tau).exp();
        assert!(
            (t_num - t_exact).abs() < 1.0,
            "lumped cooling {t_num} vs {t_exact}"
        );
    }

    #[test]
    fn invalid_boxes_are_rejected() {
        let grid = FvGrid::new((0.1, 0.1, 0.01), (4, 4, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        assert!(model
            .add_power_box(Power::new(1.0), (0, 0, 0), (5, 4, 1))
            .is_err());
        assert!(model
            .add_power_box(Power::new(1.0), (2, 2, 0), (2, 3, 1))
            .is_err());
        assert!(FvGrid::new((0.0, 0.1, 0.1), (2, 2, 2)).is_err());
        assert!(FvGrid::new((0.1, 0.1, 0.1), (0, 2, 2)).is_err());
    }

    #[test]
    fn transient_reaches_steady_state() {
        let grid = FvGrid::new((0.05, 0.05, 0.005), (5, 5, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(4.0), (2, 2, 0), (3, 3, 1))
            .unwrap();
        model.set_face_bc(
            Face::ZMax,
            FaceBc::Convection {
                h: HeatTransferCoeff::new(100.0),
                ambient: Celsius::new(20.0),
            },
        );
        let steady = model.solve_steady().unwrap();
        let mut stepper = model
            .transient_stepper(model.uniform_field(Celsius::new(20.0)), 5.0)
            .unwrap();
        for _ in 0..400 {
            stepper.step().unwrap();
        }
        let field = stepper.field();
        let dmax = (field.max_temperature().value() - steady.max_temperature().value()).abs();
        assert!(dmax < 0.05, "transient must settle to steady: Δ={dmax}");
    }

    #[test]
    fn steppers_on_one_model_share_the_pattern_and_agree_bitwise() {
        // Two steppers built from the same model state assemble the
        // system once symbolically (the second hits the cached pattern)
        // and march through identical bits, step after step.
        let grid = FvGrid::new((0.05, 0.05, 0.005), (5, 5, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(6.0), (1, 1, 0), (4, 4, 1))
            .unwrap();
        model.set_face_bc(
            Face::ZMax,
            FaceBc::Convection {
                h: HeatTransferCoeff::new(80.0),
                ambient: Celsius::new(25.0),
            },
        );
        let dt = 2.5;
        let mut first = model
            .transient_stepper(model.uniform_field(Celsius::new(25.0)), dt)
            .unwrap();
        let mut second = model
            .transient_stepper(model.uniform_field(Celsius::new(25.0)), dt)
            .unwrap();
        assert_eq!(
            model.pattern_cache_stats(),
            (1, 1),
            "one symbolic build plus one pattern-hit assembly expected"
        );
        for step in 0..6 {
            first.step().unwrap();
            second.step().unwrap();
            assert_eq!(
                first.field().temperatures(),
                second.field().temperatures(),
                "steppers diverged at step {step}"
            );
        }
        assert_eq!(
            model.pattern_cache_stats(),
            (1, 1),
            "stepping never reassembles"
        );
    }

    #[test]
    fn assemble_operator_matches_steady_solve() {
        // `A·T = b` from the public operator accessor must be consistent
        // with the steady solve: the residual of the solved field is at
        // solver-tolerance level.
        let grid = FvGrid::new((0.06, 0.04, 0.01), (6, 4, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(10.0), (1, 1, 0), (4, 3, 2))
            .unwrap();
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(20.0)));
        let field = model.solve_steady().unwrap();
        let (a, b) = model.assemble_operator();
        let r = a.spmv(field.temperatures());
        let b_norm = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        let r_norm = r
            .iter()
            .zip(&b)
            .map(|(ri, bi)| (ri - bi) * (ri - bi))
            .sum::<f64>()
            .sqrt();
        assert!(r_norm <= 1e-7 * b_norm, "residual {r_norm} vs |b| {b_norm}");
        // Capacities are ρ·cₚ·V per cell.
        let cap = model.capacities();
        assert_eq!(cap.len(), grid.cell_count());
        let expect = 2700.0 * 896.0 * grid.cell_volume();
        assert!(cap.iter().all(|&c| (c - expect).abs() < 1e-9 * expect));
        // Round-trip a field through the raw-temperature constructor.
        let restored = model
            .field_from_temperatures(field.temperatures().to_vec())
            .unwrap();
        assert_eq!(restored.temperatures(), field.temperatures());
        assert!(model.field_from_temperatures(vec![0.0; 3]).is_err());
    }

    #[test]
    fn steady_solve_records_stats() {
        use aeropack_solver::{Method, Precond};
        let grid = FvGrid::new((0.05, 0.05, 0.005), (8, 8, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(4.0), (2, 2, 0), (5, 5, 1))
            .unwrap();
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(20.0)));
        assert!(model.last_solve_stats().is_none());
        model.set_solver_config(SolverConfig::new().preconditioner(Precond::Ic0).threads(2));
        model.solve_steady().unwrap();
        let stats = model.last_solve_stats().unwrap();
        assert_eq!(stats.method, Method::Pcg);
        assert_eq!(stats.preconditioner, Precond::Ic0);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.unknowns, 64);
        assert!(stats.iterations > 0);
        assert!(stats.converged());
        // The clone carries the recorded stats along.
        assert_eq!(model.clone().last_solve_stats(), Some(stats));
    }

    #[test]
    fn pattern_cache_reuses_structure_bitwise() {
        let grid = FvGrid::new((0.05, 0.05, 0.005), (6, 6, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(5.0), (1, 1, 0), (4, 4, 1))
            .unwrap();
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(20.0)));
        assert_eq!(model.pattern_cache_stats(), (0, 0));
        let first = model.solve_steady().unwrap();
        assert_eq!(model.pattern_cache_stats(), (0, 1));
        // Re-solving (and solving at a scaled power) hits the cache and
        // reproduces the cold-path numbers exactly.
        let again = model.solve_steady().unwrap();
        assert_eq!(model.pattern_cache_stats(), (1, 1));
        assert_eq!(first.temperatures, again.temperatures);
        model.scale_sources(2.0);
        assert!((model.total_power().value() - 10.0).abs() < 1e-12);
        let doubled = model.solve_steady().unwrap();
        assert_eq!(model.pattern_cache_stats(), (2, 1));
        let mut cold = FvModel::new(grid, &Material::aluminum_6061());
        cold.add_power_box(Power::new(10.0), (1, 1, 0), (4, 4, 1))
            .unwrap();
        cold.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(20.0)));
        let reference = cold.solve_steady().unwrap();
        assert_eq!(doubled.temperatures, reference.temperatures);
        // Clones inherit the pattern (first solve is already a hit) but
        // start their own counters.
        let clone = model.clone();
        assert_eq!(clone.pattern_cache_stats(), (0, 0));
        clone.solve_steady().unwrap();
        assert_eq!(clone.pattern_cache_stats(), (1, 0));
    }

    #[test]
    fn summary_matches_individual_scans() {
        let grid = FvGrid::new((0.05, 0.05, 0.005), (5, 5, 1)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(4.0), (2, 2, 0), (3, 3, 1))
            .unwrap();
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(20.0)));
        let field = model.solve_steady().unwrap();
        let s = field.summary().unwrap();
        assert_eq!(s.max, field.max_temperature());
        assert_eq!(s.min, field.min_temperature());
        assert_eq!(s.mean, field.mean_temperature());
        assert!(s.spread() > 0.0);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn summary_rejects_degenerate_fields() {
        // No public constructor produces these (FvGrid forbids zero
        // cells), but the accessor must stay well-defined if one ever
        // appears: the old code returned min = +∞, max = −∞, mean = NaN.
        let grid = FvGrid::new((0.01, 0.01, 0.01), (1, 1, 1)).unwrap();
        let empty = FvField {
            grid,
            temperatures: Vec::new(),
        };
        assert!(empty.summary().is_err());
        assert!(empty.max_temperature().value().is_nan());
        assert!(empty.min_temperature().value().is_nan());
        assert!(empty.mean_temperature().value().is_nan());
        assert_eq!(empty.cell_count(), 0);

        let poisoned = FvField {
            grid,
            temperatures: vec![f64::NAN],
        };
        assert!(poisoned.summary().is_err());
        assert!(poisoned.mean_temperature().value().is_nan());

        let healthy = FvModel::new(grid, &Material::aluminum_6061())
            .uniform_field(Celsius::new(25.0))
            .summary()
            .unwrap();
        assert_eq!(healthy.min, healthy.max);
        assert_eq!(healthy.mean.value(), 25.0);
    }

    #[test]
    fn solver_config_choice_does_not_change_the_field() {
        use aeropack_solver::Precond;
        let grid = FvGrid::new((0.06, 0.04, 0.01), (6, 4, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(12.0), (1, 1, 0), (3, 3, 1))
            .unwrap();
        model.set_face_bc(Face::XMin, FaceBc::FixedTemperature(Celsius::new(20.0)));
        let jacobi = model.solve_steady().unwrap();
        for (precond, threads) in [(Precond::Multigrid, 4), (Precond::Ic0, 2)] {
            model.set_solver_config(SolverConfig::new().preconditioner(precond).threads(threads));
            let other = model.solve_steady().unwrap();
            for i in 0..6 {
                let a = jacobi.at(i, 0, 0).unwrap().value();
                let b = other.at(i, 0, 0).unwrap().value();
                assert!((a - b).abs() < 1e-7, "{precond:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn solve_steady_scaled_is_bitwise_identical_to_scale_sources() {
        use aeropack_solver::Precond;
        let grid = FvGrid::new((0.08, 0.06, 0.004), (8, 6, 2)).unwrap();
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(15.0), (2, 1, 0), (6, 5, 2))
            .unwrap();
        model.set_face_bc(
            Face::ZMax,
            FaceBc::Convection {
                h: HeatTransferCoeff::new(40.0),
                ambient: Celsius::new(30.0),
            },
        );
        for precond in [Precond::Jacobi, Precond::Ic0] {
            model.set_solver_config(SolverConfig::new().preconditioner(precond));
            for factor in [0.25, 1.0, 3.5] {
                let scaled = model.solve_steady_scaled(factor).unwrap();
                let mut mutated = model.clone();
                mutated.scale_sources(factor);
                let reference = mutated.solve_steady().unwrap();
                assert_eq!(
                    scaled.temperatures, reference.temperatures,
                    "{precond:?} factor {factor}: scaled solve must match scale_sources bitwise"
                );
            }
            // The model itself is untouched by the scaled solves.
            assert!((model.total_power().value() - 15.0).abs() < 1e-12);
        }
    }
}
