//! Structural model assembly: nodes, elements, constraints.

use std::sync::Mutex;

use aeropack_solver::{solve_dense, solve_sparse, CsrMatrix, Method, SolverConfig, SolverStats};
use aeropack_units::Mass;

use crate::elements::{
    acm_plate, acm_plate_center_stress, bernoulli_beam, BeamProperties, PlateProperties,
};
use crate::error::FemError;
use crate::linalg::DMatrix;

/// The three bending DOFs carried by every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dof {
    /// Out-of-plane deflection `w`.
    W,
    /// Slope `∂w/∂x`.
    Wx,
    /// Slope `∂w/∂y`.
    Wy,
}

impl Dof {
    fn offset(self) -> usize {
        match self {
            Dof::W => 0,
            Dof::Wx => 1,
            Dof::Wy => 2,
        }
    }
}

/// An assembled structural model: nodes in a plane, bending elements,
/// point springs/masses and single-point constraints.
///
/// # Examples
///
/// ```
/// use aeropack_fem::{Model, Dof, PlateProperties};
/// use aeropack_materials::Material;
/// use aeropack_units::Length;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // One plate element pinned at its four corners.
/// let mut model = Model::new(vec![(0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.0, 0.1)]);
/// let props = PlateProperties::from_material(&Material::fr4(), Length::from_millimeters(1.6))?;
/// model.add_plate([0, 1, 2, 3], &props)?;
/// for n in 0..4 {
///     model.fix(n, Dof::W)?;
/// }
/// assert_eq!(model.free_dof_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Model {
    nodes: Vec<(f64, f64)>,
    k: DMatrix,
    m: DMatrix,
    constrained: Vec<bool>,
    plates: Vec<PlateRecord>,
    solve_stats: Mutex<Option<SolverStats>>,
}

impl Clone for Model {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            k: self.k.clone(),
            m: self.m.clone(),
            constrained: self.constrained.clone(),
            plates: self.plates.clone(),
            solve_stats: Mutex::new(self.last_solve_stats()),
        }
    }
}

#[derive(Debug, Clone)]
struct PlateRecord {
    quad: [usize; 4],
    a: f64,
    b: f64,
    props: PlateProperties,
}

impl Model {
    /// Creates an empty model over the given node coordinates.
    pub fn new(nodes: Vec<(f64, f64)>) -> Self {
        let ndof = 3 * nodes.len();
        Self {
            nodes,
            k: DMatrix::zeros(ndof, ndof),
            m: DMatrix::zeros(ndof, ndof),
            constrained: vec![false; ndof],
            plates: Vec::new(),
            solve_stats: Mutex::new(None),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total DOF count (3 per node).
    pub fn dof_count(&self) -> usize {
        3 * self.nodes.len()
    }

    /// Coordinates of a node.
    ///
    /// # Errors
    ///
    /// Returns an error if the node index is out of range.
    pub fn node(&self, index: usize) -> Result<(f64, f64), FemError> {
        self.nodes
            .get(index)
            .copied()
            .ok_or(FemError::IndexOutOfRange {
                what: "node",
                index,
                len: self.nodes.len(),
            })
    }

    /// Global DOF index of `(node, dof)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node index is out of range.
    pub fn dof_index(&self, node: usize, dof: Dof) -> Result<usize, FemError> {
        if node >= self.nodes.len() {
            return Err(FemError::IndexOutOfRange {
                what: "node",
                index: node,
                len: self.nodes.len(),
            });
        }
        Ok(3 * node + dof.offset())
    }

    fn check_node(&self, node: usize) -> Result<(), FemError> {
        if node >= self.nodes.len() {
            return Err(FemError::IndexOutOfRange {
                what: "node",
                index: node,
                len: self.nodes.len(),
            });
        }
        Ok(())
    }

    /// Adds an axis-aligned rectangular ACM plate element over four nodes
    /// given counter-clockwise from the lower-left corner.
    ///
    /// # Errors
    ///
    /// Returns an error if a node index is out of range or the four nodes
    /// do not form an axis-aligned rectangle.
    pub fn add_plate(&mut self, quad: [usize; 4], props: &PlateProperties) -> Result<(), FemError> {
        for &n in &quad {
            self.check_node(n)?;
        }
        let p: Vec<(f64, f64)> = quad.iter().map(|&n| self.nodes[n]).collect();
        let a = p[1].0 - p[0].0;
        let b = p[3].1 - p[0].1;
        let tol = 1e-9 * (a.abs() + b.abs());
        let is_rect = (p[1].1 - p[0].1).abs() < tol
            && (p[2].0 - p[1].0).abs() < tol
            && (p[2].1 - p[3].1).abs() < tol
            && (p[3].0 - p[0].0).abs() < tol;
        if !is_rect || a <= 0.0 || b <= 0.0 {
            return Err(FemError::invalid(
                "plate element nodes must form an axis-aligned CCW rectangle",
            ));
        }
        let (ke, me) = acm_plate(a, b, props)?;
        let dofs: Vec<usize> = quad
            .iter()
            .flat_map(|&n| [3 * n, 3 * n + 1, 3 * n + 2])
            .collect();
        self.scatter(&ke, &me, &dofs);
        self.plates.push(PlateRecord {
            quad,
            a,
            b,
            props: props.clone(),
        });
        Ok(())
    }

    /// Recovers the largest element-centre bending stress over all plate
    /// elements for a full-length displacement vector `u` (from
    /// [`Model::solve_static`]). Pa.
    ///
    /// # Errors
    ///
    /// Returns an error if the model has no plate elements or `u` has
    /// the wrong length.
    pub fn max_bending_stress(&self, u: &[f64]) -> Result<f64, FemError> {
        if self.plates.is_empty() {
            return Err(FemError::invalid("model has no plate elements"));
        }
        if u.len() != self.dof_count() {
            return Err(FemError::invalid("displacement vector length mismatch"));
        }
        let mut worst: f64 = 0.0;
        for rec in &self.plates {
            let mut u_e = [0.0f64; 12];
            for (li, &n) in rec.quad.iter().enumerate() {
                u_e[3 * li] = u[3 * n];
                u_e[3 * li + 1] = u[3 * n + 1];
                u_e[3 * li + 2] = u[3 * n + 2];
            }
            let s = acm_plate_center_stress(rec.a, rec.b, &rec.props, &u_e)?;
            worst = worst.max(s);
        }
        Ok(worst)
    }

    /// Adds a bending beam between two nodes lying on a line parallel to
    /// the x- or y-axis. The beam couples `(W, Wx)` when along x and
    /// `(W, Wy)` when along y.
    ///
    /// # Errors
    ///
    /// Returns an error if the nodes coincide or the segment is not
    /// axis-aligned.
    pub fn add_beam(
        &mut self,
        n1: usize,
        n2: usize,
        props: &BeamProperties,
    ) -> Result<(), FemError> {
        self.check_node(n1)?;
        self.check_node(n2)?;
        let (x1, y1) = self.nodes[n1];
        let (x2, y2) = self.nodes[n2];
        let dx = x2 - x1;
        let dy = y2 - y1;
        let l = (dx * dx + dy * dy).sqrt();
        if l <= 0.0 {
            return Err(FemError::invalid("beam nodes coincide"));
        }
        let tol = 1e-9 * l;
        let rot = if dy.abs() < tol {
            Dof::Wx
        } else if dx.abs() < tol {
            Dof::Wy
        } else {
            return Err(FemError::invalid("beam must be axis-aligned"));
        };
        let (ke, me) = bernoulli_beam(l, props)?;
        let dofs = [3 * n1, 3 * n1 + rot.offset(), 3 * n2, 3 * n2 + rot.offset()];
        self.scatter(&ke, &me, &dofs);
        Ok(())
    }

    /// Adds a grounded spring of stiffness `stiffness` (N/m for `W`,
    /// N·m/rad for slopes) at a DOF. Used for wedge locks, isolators and
    /// flexible mounts.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range node or non-positive
    /// stiffness.
    pub fn add_spring_to_ground(
        &mut self,
        node: usize,
        dof: Dof,
        stiffness: f64,
    ) -> Result<(), FemError> {
        if stiffness <= 0.0 {
            return Err(FemError::invalid("spring stiffness must be positive"));
        }
        let i = self.dof_index(node, dof)?;
        self.k[(i, i)] += stiffness;
        Ok(())
    }

    /// Adds a spring of stiffness `stiffness` coupling the same DOF kind
    /// on two nodes.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range nodes or non-positive stiffness.
    pub fn add_spring_between(
        &mut self,
        n1: usize,
        n2: usize,
        dof: Dof,
        stiffness: f64,
    ) -> Result<(), FemError> {
        if stiffness <= 0.0 {
            return Err(FemError::invalid("spring stiffness must be positive"));
        }
        let i = self.dof_index(n1, dof)?;
        let j = self.dof_index(n2, dof)?;
        self.k[(i, i)] += stiffness;
        self.k[(j, j)] += stiffness;
        self.k[(i, j)] -= stiffness;
        self.k[(j, i)] -= stiffness;
        Ok(())
    }

    /// Adds a lumped (non-rotary) mass on a node's `W` DOF — a connector,
    /// a transformer, the "power supply" of the Ariane example.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range node or negative mass.
    pub fn add_lumped_mass(&mut self, node: usize, mass: Mass) -> Result<(), FemError> {
        if mass.value() < 0.0 {
            return Err(FemError::invalid("lumped mass must be non-negative"));
        }
        let i = self.dof_index(node, Dof::W)?;
        self.m[(i, i)] += mass.value();
        Ok(())
    }

    /// Constrains a DOF to zero.
    ///
    /// # Errors
    ///
    /// Returns an error if the node index is out of range.
    pub fn fix(&mut self, node: usize, dof: Dof) -> Result<(), FemError> {
        let i = self.dof_index(node, dof)?;
        self.constrained[i] = true;
        Ok(())
    }

    /// Constrains all three DOFs of a node (clamped point).
    ///
    /// # Errors
    ///
    /// Returns an error if the node index is out of range.
    pub fn fix_all(&mut self, node: usize) -> Result<(), FemError> {
        for dof in [Dof::W, Dof::Wx, Dof::Wy] {
            self.fix(node, dof)?;
        }
        Ok(())
    }

    /// Number of unconstrained DOFs.
    pub fn free_dof_count(&self) -> usize {
        self.constrained.iter().filter(|&&c| !c).count()
    }

    /// Indices of unconstrained DOFs in global numbering.
    pub fn free_dofs(&self) -> Vec<usize> {
        (0..self.dof_count())
            .filter(|&i| !self.constrained[i])
            .collect()
    }

    /// Extracts the reduced (free-free) stiffness and mass matrices.
    pub fn reduced_system(&self) -> (DMatrix, DMatrix, Vec<usize>) {
        let free = self.free_dofs();
        let n = free.len();
        let mut k = DMatrix::zeros(n, n);
        let mut m = DMatrix::zeros(n, n);
        for (ri, &gi) in free.iter().enumerate() {
            for (rj, &gj) in free.iter().enumerate() {
                k[(ri, rj)] = self.k[(gi, gj)];
                m[(ri, rj)] = self.m[(gi, gj)];
            }
        }
        (k, m, free)
    }

    /// Solves the static problem `K·u = f` for point loads
    /// `(node, dof, force)`. Returns the full-length displacement vector
    /// (zeros at constrained DOFs).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range load locations or a singular
    /// (under-constrained) stiffness matrix.
    pub fn solve_static(&self, loads: &[(usize, Dof, f64)]) -> Result<Vec<f64>, FemError> {
        let (k_ff, _, free) = self.reduced_system();
        let mut f = vec![0.0; free.len()];
        for &(node, dof, force) in loads {
            let gi = self.dof_index(node, dof)?;
            if let Some(ri) = free.iter().position(|&g| g == gi) {
                f[ri] += force;
            }
        }
        let sol = solve_dense(
            k_ff.data(),
            free.len(),
            &f,
            &SolverConfig::new()
                .method(Method::Cholesky)
                .context("static solve"),
        )?;
        self.record_solve_stats(sol.stats);
        let mut u = vec![0.0; self.dof_count()];
        for (ri, &gi) in free.iter().enumerate() {
            u[gi] = sol.x[ri];
        }
        Ok(u)
    }

    /// Solves the static problem `K·u = f` through the shared sparse
    /// PCG backend instead of dense Cholesky. The reduced stiffness is
    /// compressed to CSR (explicitly symmetrised, so rounding noise in
    /// the dense assembly cannot break the SPD contract) and handed to
    /// [`solve_sparse`] with the caller's configuration — which is
    /// where the preconditioner choice, including
    /// [`Precond::Ic0`](aeropack_solver::Precond) with its automatic
    /// RCM reordering, plugs into the structural path. For the meshed
    /// plates of this crate the CSR operator holds ~30 entries per row
    /// versus `n` in dense storage, so large meshes solve in O(nnz)
    /// per iteration.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range load locations or a singular
    /// (under-constrained) stiffness matrix.
    pub fn solve_static_sparse(
        &self,
        loads: &[(usize, Dof, f64)],
        config: &SolverConfig,
    ) -> Result<Vec<f64>, FemError> {
        let (k_ff, _, free) = self.reduced_system();
        let n = free.len();
        let mut f = vec![0.0; n];
        for &(node, dof, force) in loads {
            let gi = self.dof_index(node, dof)?;
            if let Some(ri) = free.iter().position(|&g| g == gi) {
                f[ri] += force;
            }
        }
        let a = CsrMatrix::from_row_fn(n, config.get_threads(), |ri, row| {
            for rj in 0..n {
                let v = 0.5 * (k_ff[(ri, rj)] + k_ff[(rj, ri)]);
                if v != 0.0 {
                    row.push((rj, v));
                }
            }
        });
        let cfg = config.clone().context("sparse static solve");
        let sol = solve_sparse(&a, &f, &cfg)?;
        self.record_solve_stats(sol.stats);
        let mut u = vec![0.0; self.dof_count()];
        for (ri, &gi) in free.iter().enumerate() {
            u[gi] = sol.x[ri];
        }
        Ok(u)
    }

    /// Statistics recorded by the most recent solve on this model
    /// (static or modal), if any.
    pub fn last_solve_stats(&self) -> Option<SolverStats> {
        self.solve_stats.lock().expect("stats lock").clone()
    }

    pub(crate) fn record_solve_stats(&self, stats: SolverStats) {
        *self.solve_stats.lock().expect("stats lock") = Some(stats);
    }

    /// Total translational mass seen by a uniform `w` motion:
    /// `rᵀ·M·r` with `r` = 1 on every `W` DOF.
    pub fn total_mass(&self) -> Mass {
        let r = self.influence_vector();
        let mr = self.m.matvec(&r);
        Mass::new(r.iter().zip(&mr).map(|(a, b)| a * b).sum())
    }

    /// The rigid-body influence vector for uniform base motion in `w`
    /// (1 on every translational DOF, 0 on slopes).
    pub fn influence_vector(&self) -> Vec<f64> {
        let mut r = vec![0.0; self.dof_count()];
        for node in 0..self.nodes.len() {
            r[3 * node] = 1.0;
        }
        r
    }

    /// Read access to the assembled global stiffness matrix.
    pub fn stiffness(&self) -> &DMatrix {
        &self.k
    }

    /// Read access to the assembled global mass matrix.
    pub fn mass(&self) -> &DMatrix {
        &self.m
    }

    fn scatter(&mut self, ke: &DMatrix, me: &DMatrix, dofs: &[usize]) {
        for (li, &gi) in dofs.iter().enumerate() {
            for (lj, &gj) in dofs.iter().enumerate() {
                self.k[(gi, gj)] += ke[(li, lj)];
                self.m[(gi, gj)] += me[(li, lj)];
            }
        }
    }
}

/// A rectangular plate meshed into `nx × ny` ACM elements, with helpers
/// for the support conditions that occur in equipment design.
#[derive(Debug, Clone)]
pub struct PlateMesh {
    /// The underlying model.
    pub model: Model,
    nx: usize,
    ny: usize,
}

impl PlateMesh {
    /// Meshes a `lx × ly` plate into `nx × ny` elements of the given
    /// properties.
    ///
    /// # Errors
    ///
    /// Returns an error for degenerate dimensions or zero subdivisions.
    pub fn rectangular(
        lx: f64,
        ly: f64,
        nx: usize,
        ny: usize,
        props: &PlateProperties,
    ) -> Result<Self, FemError> {
        if lx <= 0.0 || ly <= 0.0 {
            return Err(FemError::invalid("plate dimensions must be positive"));
        }
        if nx == 0 || ny == 0 {
            return Err(FemError::invalid(
                "mesh must have at least one element per side",
            ));
        }
        let mut nodes = Vec::with_capacity((nx + 1) * (ny + 1));
        for j in 0..=ny {
            for i in 0..=nx {
                nodes.push((lx * i as f64 / nx as f64, ly * j as f64 / ny as f64));
            }
        }
        let mut model = Model::new(nodes);
        for j in 0..ny {
            for i in 0..nx {
                let n0 = j * (nx + 1) + i;
                let n1 = n0 + 1;
                let n2 = n1 + (nx + 1);
                let n3 = n0 + (nx + 1);
                model.add_plate([n0, n1, n2, n3], props)?;
            }
        }
        Ok(Self { model, nx, ny })
    }

    /// Grid index of the node at column `i`, row `j`.
    ///
    /// # Errors
    ///
    /// Returns an error when `(i, j)` exceeds the grid.
    pub fn node_at(&self, i: usize, j: usize) -> Result<usize, FemError> {
        if i > self.nx || j > self.ny {
            return Err(FemError::IndexOutOfRange {
                what: "grid node",
                index: i.max(j),
                len: self.nx.max(self.ny) + 1,
            });
        }
        Ok(j * (self.nx + 1) + i)
    }

    /// Node nearest the plate centre.
    pub fn center_node(&self) -> usize {
        (self.ny / 2) * (self.nx + 1) + self.nx / 2
    }

    /// Simply supports all four edges (hard condition: `w` and the
    /// tangential slope fixed).
    ///
    /// # Errors
    ///
    /// Propagates node-index errors (cannot occur for a well-formed mesh).
    pub fn simply_support_edges(&mut self) -> Result<(), FemError> {
        for i in 0..=self.nx {
            for j in [0, self.ny] {
                let n = self.node_at(i, j)?;
                self.model.fix(n, Dof::W)?;
                self.model.fix(n, Dof::Wx)?; // tangential slope along x-edges
            }
        }
        for j in 0..=self.ny {
            for i in [0, self.nx] {
                let n = self.node_at(i, j)?;
                self.model.fix(n, Dof::W)?;
                self.model.fix(n, Dof::Wy)?; // tangential slope along y-edges
            }
        }
        Ok(())
    }

    /// Clamps all four edges (all three DOFs fixed).
    ///
    /// # Errors
    ///
    /// Propagates node-index errors (cannot occur for a well-formed mesh).
    pub fn clamp_edges(&mut self) -> Result<(), FemError> {
        for i in 0..=self.nx {
            for j in [0, self.ny] {
                let n = self.node_at(i, j)?;
                self.model.fix_all(n)?;
            }
        }
        for j in 0..=self.ny {
            for i in [0, self.nx] {
                let n = self.node_at(i, j)?;
                self.model.fix_all(n)?;
            }
        }
        Ok(())
    }

    /// Pins `w` (deflection only) along the two edges parallel to y —
    /// the wedge-lock ("card-guide") condition of a conduction-cooled
    /// avionics board.
    ///
    /// # Errors
    ///
    /// Propagates node-index errors (cannot occur for a well-formed mesh).
    pub fn pin_card_guides(&mut self) -> Result<(), FemError> {
        for j in 0..=self.ny {
            for i in [0, self.nx] {
                let n = self.node_at(i, j)?;
                self.model.fix(n, Dof::W)?;
            }
        }
        Ok(())
    }

    /// Pins `w` (deflection only) along all four edges — card guides
    /// plus front retainer and rear connector support, the usual
    /// fully-retained avionics board mounting.
    ///
    /// # Errors
    ///
    /// Propagates node-index errors (cannot occur for a well-formed mesh).
    pub fn pin_all_edges(&mut self) -> Result<(), FemError> {
        self.pin_card_guides()?;
        for i in 0..=self.nx {
            for j in [0, self.ny] {
                let n = self.node_at(i, j)?;
                self.model.fix(n, Dof::W)?;
            }
        }
        Ok(())
    }

    /// Elements along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Elements along y.
    pub fn ny(&self) -> usize {
        self.ny
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeropack_materials::Material;
    use aeropack_units::Length;

    fn fr4_props() -> PlateProperties {
        PlateProperties::from_material(&Material::fr4(), Length::from_millimeters(1.6)).unwrap()
    }

    #[test]
    fn mesh_counts() {
        let mesh = PlateMesh::rectangular(0.2, 0.15, 4, 3, &fr4_props()).unwrap();
        assert_eq!(mesh.model.node_count(), 20);
        assert_eq!(mesh.model.dof_count(), 60);
    }

    #[test]
    fn global_matrices_are_symmetric() {
        let mesh = PlateMesh::rectangular(0.2, 0.15, 3, 3, &fr4_props()).unwrap();
        assert!(mesh.model.stiffness().asymmetry() < 1e-6 * mesh.model.stiffness().max_abs());
        assert!(mesh.model.mass().asymmetry() < 1e-9 * mesh.model.mass().max_abs());
    }

    #[test]
    fn total_mass_matches_plate_mass() {
        let props = fr4_props();
        let mesh = PlateMesh::rectangular(0.2, 0.15, 4, 4, &props).unwrap();
        let exact = props.areal_mass * 0.2 * 0.15;
        assert!((mesh.model.total_mass().value() - exact).abs() < 1e-9 * exact);
    }

    #[test]
    fn lumped_mass_adds_to_total() {
        let mut mesh = PlateMesh::rectangular(0.1, 0.1, 2, 2, &fr4_props()).unwrap();
        let before = mesh.model.total_mass().value();
        let node = mesh.center_node();
        mesh.model
            .add_lumped_mass(node, Mass::from_grams(250.0))
            .unwrap();
        let after = mesh.model.total_mass().value();
        assert!((after - before - 0.25).abs() < 1e-12);
    }

    #[test]
    fn static_center_deflection_of_ss_plate() {
        // Navier series: w_max = α P a² / D with α = 0.01160 for a square
        // simply-supported plate under a central point load.
        let props = fr4_props();
        let a = 0.2;
        let mut mesh = PlateMesh::rectangular(a, a, 8, 8, &props).unwrap();
        mesh.simply_support_edges().unwrap();
        let center = mesh.center_node();
        let p = 10.0;
        let u = mesh.model.solve_static(&[(center, Dof::W, p)]).unwrap();
        let w_center = u[3 * center];
        let exact = 0.0116 * p * a * a / props.flexural_rigidity();
        let rel = (w_center - exact).abs() / exact;
        assert!(rel < 0.03, "central deflection off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn sparse_static_solve_matches_dense_for_every_preconditioner() {
        use aeropack_solver::Precond;
        let props = fr4_props();
        let mut mesh = PlateMesh::rectangular(0.2, 0.15, 6, 5, &props).unwrap();
        mesh.simply_support_edges().unwrap();
        let center = mesh.center_node();
        let loads = [(center, Dof::W, 12.0)];
        let dense = mesh.model.solve_static(&loads).unwrap();
        let scale = dense.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for precond in [
            Precond::Jacobi,
            Precond::Ic0,
            Precond::Chebyshev(4),
            // No grid shape on the FEM path: Multigrid falls back to
            // the algebraic Chebyshev preconditioner.
            Precond::Multigrid,
        ] {
            let cfg = SolverConfig::new().preconditioner(precond).tolerance(1e-12);
            let sparse = mesh.model.solve_static_sparse(&loads, &cfg).unwrap();
            for (d, s) in dense.iter().zip(&sparse) {
                assert!(
                    (d - s).abs() <= 1e-8 * scale,
                    "{precond:?}: {d} vs {s} (scale {scale:.3e})"
                );
            }
            let stats = mesh.model.last_solve_stats().unwrap();
            assert!(stats.converged());
            if precond == Precond::Ic0 {
                let factor = stats.factorization.expect("IC(0) records factor stats");
                assert!(factor.reordered, "IC(0) engages RCM on the FEM path");
            }
            if precond == Precond::Multigrid {
                assert!(
                    matches!(stats.preconditioner, Precond::Chebyshev(_)),
                    "unstructured multigrid request falls back to Chebyshev"
                );
                assert!(stats.spectral.is_some());
            }
        }
    }

    #[test]
    fn invalid_constructions_are_rejected() {
        let props = fr4_props();
        assert!(PlateMesh::rectangular(0.0, 0.1, 2, 2, &props).is_err());
        assert!(PlateMesh::rectangular(0.1, 0.1, 0, 2, &props).is_err());
        let mut model = Model::new(vec![(0.0, 0.0), (1.0, 1.0)]);
        // Non-axis-aligned beam.
        let bp = crate::elements::BeamProperties {
            youngs_modulus: 1.0,
            second_moment: 1.0,
            linear_mass: 1.0,
        };
        assert!(model.add_beam(0, 1, &bp).is_err());
        assert!(model.add_spring_to_ground(0, Dof::W, -1.0).is_err());
        assert!(model.add_spring_to_ground(9, Dof::W, 1.0).is_err());
    }

    #[test]
    fn under_constrained_static_solve_fails() {
        let mesh = PlateMesh::rectangular(0.1, 0.1, 2, 2, &fr4_props()).unwrap();
        // No supports at all: K is singular.
        let center = mesh.center_node();
        assert!(mesh.model.solve_static(&[(center, Dof::W, 1.0)]).is_err());
    }

    #[test]
    fn uniform_load_stress_matches_roark() {
        // Roark: simply-supported square plate, uniform pressure q:
        // σ_max = 0.2874·q·a²/t² at the centre (ν = 0.3).
        let t_mm = 2.0;
        let props = PlateProperties {
            youngs_modulus: 70e9,
            poisson_ratio: 0.3,
            thickness: t_mm * 1e-3,
            areal_mass: 5.4,
        };
        let a = 0.2;
        let n = 8;
        let mut mesh = PlateMesh::rectangular(a, a, n, n, &props).unwrap();
        mesh.simply_support_edges().unwrap();
        // Uniform pressure as tributary-area nodal forces.
        let q = 5000.0; // Pa
        let cell = (a / n as f64) * (a / n as f64);
        let mut loads = Vec::new();
        for j in 0..=n {
            for i in 0..=n {
                let wx = if i == 0 || i == n { 0.5 } else { 1.0 };
                let wy = if j == 0 || j == n { 0.5 } else { 1.0 };
                let node = mesh.node_at(i, j).unwrap();
                loads.push((node, Dof::W, q * cell * wx * wy));
            }
        }
        let u = mesh.model.solve_static(&loads).unwrap();
        let sigma = mesh.model.max_bending_stress(&u).unwrap();
        let exact = 0.2874 * q * a * a / (t_mm * 1e-3).powi(2);
        let rel = (sigma - exact).abs() / exact;
        assert!(
            rel < 0.10,
            "σ_max {sigma:.3e} vs Roark {exact:.3e} ({:.1}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn stress_recovery_requires_plates() {
        let model = Model::new(vec![(0.0, 0.0), (1.0, 0.0)]);
        assert!(model.max_bending_stress(&[0.0; 6]).is_err());
    }

    #[test]
    fn spring_between_nodes_is_balanced() {
        let mut model = Model::new(vec![(0.0, 0.0), (1.0, 0.0)]);
        model.add_spring_between(0, 1, Dof::W, 1000.0).unwrap();
        let k = model.stiffness();
        assert_eq!(k[(0, 0)], 1000.0);
        assert_eq!(k[(3, 3)], 1000.0);
        assert_eq!(k[(0, 3)], -1000.0);
        // Row sums vanish: no net force under rigid translation.
        assert!((k[(0, 0)] + k[(0, 3)]).abs() < 1e-12);
    }
}
