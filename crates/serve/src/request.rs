//! The unified request/response vocabulary of the analysis service.
//!
//! Every workload the workspace can run — SEB capability and operating
//! points, finite-volume steady fields (plain or power-scaled), FEM
//! static/modal/harmonic analyses, and whole power sweeps — is
//! expressible as one [`AnalysisRequest`] value, and every result
//! comes back as one [`AnalysisResponse`]. Requests are built from
//! compact *specs* (plain numbers and tags, no model handles), which
//! makes them cheap to hash ([`AnalysisRequest::fingerprint`]), cheap
//! to serialise (see [`wire`](crate::wire)) and safe to coalesce: two
//! requests with equal specs denote bit-identical models.

use aeropack_solver::Fingerprint;

use crate::error::Error;

/// An invalid-request error unless `value` is finite.
fn finite(tag: &str, field: &str, value: f64) -> Result<(), Error> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(Error::invalid(format!(
            "{tag} {field} must be finite, got {value}"
        )))
    }
}

/// Seat structure material for the SEB model (the paper's Fig 10
/// compares an aluminium and a carbon-composite seat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeatKind {
    /// Aluminium honeycomb seat structure.
    Aluminum,
    /// Carbon-composite seat structure.
    CarbonComposite,
}

impl SeatKind {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Aluminum => "aluminum",
            Self::CarbonComposite => "carbon_composite",
        }
    }

    /// Parses a wire tag.
    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "aluminum" => Some(Self::Aluminum),
            "carbon_composite" => Some(Self::CarbonComposite),
            _ => None,
        }
    }
}

/// Plate material for FV/FEM plate specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaterialKind {
    /// Aluminium 6061.
    Aluminum,
    /// Copper.
    Copper,
    /// FR-4 laminate.
    Fr4,
}

impl MaterialKind {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Aluminum => "aluminum",
            Self::Copper => "copper",
            Self::Fr4 => "fr4",
        }
    }

    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "aluminum" => Some(Self::Aluminum),
            "copper" => Some(Self::Copper),
            "fr4" => Some(Self::Fr4),
            _ => None,
        }
    }

    /// The material table entry this tag denotes.
    pub fn material(self) -> aeropack_materials::Material {
        match self {
            Self::Aluminum => aeropack_materials::Material::aluminum_6061(),
            Self::Copper => aeropack_materials::Material::copper(),
            Self::Fr4 => aeropack_materials::Material::fr4(),
        }
    }
}

/// Cooling mode for board-level (Level 2) requests — the wire-safe
/// mirror of `aeropack_core::CoolingMode`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoolingModeSpec {
    /// Radiation + free convection.
    FreeConvection,
    /// Direct forced air at a multiple of the ARINC 600 allocation.
    ForcedAir {
        /// Flow multiplier (1.0 = standard).
        flow_multiplier: f64,
    },
    /// Conduction into wedge-locked rails at a fixed temperature.
    ConductionCooled {
        /// Rail temperature, °C.
        rail_c: f64,
    },
    /// Air flow through an internal finned exchanger.
    AirFlowThrough {
        /// Flow multiplier (1.0 = standard).
        flow_multiplier: f64,
    },
    /// Liquid cold plate behind the board.
    LiquidFlowThrough {
        /// Coolant inlet temperature, °C.
        coolant_inlet_c: f64,
    },
}

impl CoolingModeSpec {
    /// Stable wire tag of the variant.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::FreeConvection => "free_convection",
            Self::ForcedAir { .. } => "forced_air",
            Self::ConductionCooled { .. } => "conduction_cooled",
            Self::AirFlowThrough { .. } => "air_flow_through",
            Self::LiquidFlowThrough { .. } => "liquid_flow_through",
        }
    }

    /// The core cooling mode this spec denotes.
    pub fn mode(&self) -> aeropack_core::CoolingMode {
        use aeropack_core::CoolingMode;
        match *self {
            Self::FreeConvection => CoolingMode::FreeConvection,
            Self::ForcedAir { flow_multiplier } => CoolingMode::DirectForcedAir { flow_multiplier },
            Self::ConductionCooled { rail_c } => CoolingMode::ConductionCooled {
                rail_temperature: aeropack_units::Celsius::new(rail_c),
            },
            Self::AirFlowThrough { flow_multiplier } => {
                CoolingMode::AirFlowThrough { flow_multiplier }
            }
            Self::LiquidFlowThrough { coolant_inlet_c } => CoolingMode::LiquidFlowThrough {
                coolant_inlet: aeropack_units::Celsius::new(coolant_inlet_c),
            },
        }
    }

    /// Builds the spec from a core cooling mode (for callers migrating
    /// existing workloads onto the service).
    pub fn from_mode(mode: &aeropack_core::CoolingMode) -> Self {
        use aeropack_core::CoolingMode;
        match *mode {
            CoolingMode::FreeConvection => Self::FreeConvection,
            CoolingMode::DirectForcedAir { flow_multiplier } => Self::ForcedAir { flow_multiplier },
            CoolingMode::ConductionCooled { rail_temperature } => Self::ConductionCooled {
                rail_c: rail_temperature.value(),
            },
            CoolingMode::AirFlowThrough { flow_multiplier } => {
                Self::AirFlowThrough { flow_multiplier }
            }
            CoolingMode::LiquidFlowThrough { coolant_inlet } => Self::LiquidFlowThrough {
                coolant_inlet_c: coolant_inlet.value(),
            },
        }
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        match *self {
            Self::FreeConvection => Ok(()),
            Self::ForcedAir { flow_multiplier } | Self::AirFlowThrough { flow_multiplier } => {
                finite(tag, "flow_multiplier", flow_multiplier)
            }
            Self::ConductionCooled { rail_c } => finite(tag, "rail_c", rail_c),
            Self::LiquidFlowThrough { coolant_inlet_c } => {
                finite(tag, "coolant_inlet_c", coolant_inlet_c)
            }
        }
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        match *self {
            Self::FreeConvection => fp.write_u8(0),
            Self::ForcedAir { flow_multiplier } => {
                fp.write_u8(1);
                fp.write_f64(flow_multiplier);
            }
            Self::ConductionCooled { rail_c } => {
                fp.write_u8(2);
                fp.write_f64(rail_c);
            }
            Self::AirFlowThrough { flow_multiplier } => {
                fp.write_u8(3);
                fp.write_f64(flow_multiplier);
            }
            Self::LiquidFlowThrough { coolant_inlet_c } => {
                fp.write_u8(4);
                fp.write_f64(coolant_inlet_c);
            }
        }
    }
}

/// A COSEE seat electronics box configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SebSpec {
    /// Seat structure material.
    pub seat: SeatKind,
    /// Whether the loop heat pipes are fitted.
    pub lhp: bool,
    /// Tilt from horizontal, degrees.
    pub tilt_deg: f64,
    /// Cabin air temperature, °C.
    pub ambient_c: f64,
}

impl SebSpec {
    /// Model-level fingerprint (everything but the query).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("serve.seb");
        self.hash_into(&mut fp);
        fp.finish()
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        finite(tag, "tilt_deg", self.tilt_deg)?;
        finite(tag, "ambient_c", self.ambient_c)
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        fp.write_u8(match self.seat {
            SeatKind::Aluminum => 0,
            SeatKind::CarbonComposite => 1,
        });
        fp.write_bool(self.lhp);
        fp.write_f64(self.tilt_deg);
        fp.write_f64(self.ambient_c);
    }
}

/// A rectangular dissipating plate solved by the finite-volume
/// conduction backend: a centre power patch, convection from the top
/// face, adiabatic elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateSpec {
    /// Plate length, m.
    pub lx_m: f64,
    /// Plate width, m.
    pub ly_m: f64,
    /// Plate thickness, m.
    pub thickness_m: f64,
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Plate material.
    pub material: MaterialKind,
    /// Total dissipated power, W (spread over the centre half of the
    /// plate).
    pub power_w: f64,
    /// Film coefficient on the top face, W/(m²·K).
    pub h_w_m2k: f64,
    /// Coolant/ambient temperature, °C.
    pub ambient_c: f64,
}

impl PlateSpec {
    /// Model-level fingerprint (shared by every scale of this plate —
    /// the coalescing key).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("serve.plate");
        self.hash_into(&mut fp);
        fp.finish()
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        finite(tag, "lx_m", self.lx_m)?;
        finite(tag, "ly_m", self.ly_m)?;
        finite(tag, "thickness_m", self.thickness_m)?;
        finite(tag, "power_w", self.power_w)?;
        finite(tag, "h_w_m2k", self.h_w_m2k)?;
        finite(tag, "ambient_c", self.ambient_c)
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        fp.write_f64(self.lx_m);
        fp.write_f64(self.ly_m);
        fp.write_f64(self.thickness_m);
        fp.write_usize(self.nx);
        fp.write_usize(self.ny);
        fp.write_u8(match self.material {
            MaterialKind::Aluminum => 0,
            MaterialKind::Copper => 1,
            MaterialKind::Fr4 => 2,
        });
        fp.write_f64(self.power_w);
        fp.write_f64(self.h_w_m2k);
        fp.write_f64(self.ambient_c);
    }
}

/// A representative avionics board analysed at Level 2 (finite-volume
/// board field under a cooling mode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardSpec {
    /// Total board dissipation, W.
    pub power_w: f64,
    /// Cooling technology.
    pub mode: CoolingModeSpec,
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// In-plane cell resolution, mm.
    pub resolution_mm: f64,
}

impl BoardSpec {
    /// Model-level fingerprint (the coalescing key across scales).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("serve.board");
        self.hash_into(&mut fp);
        fp.finish()
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        finite(tag, "power_w", self.power_w)?;
        self.mode.check_finite(tag)?;
        finite(tag, "ambient_c", self.ambient_c)?;
        finite(tag, "resolution_mm", self.resolution_mm)
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        fp.write_f64(self.power_w);
        self.mode.hash_into(&mut *fp);
        fp.write_f64(self.ambient_c);
        fp.write_f64(self.resolution_mm);
    }
}

/// A rectangular PCB analysed by the structural (Kirchhoff plate) FEM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FemPlateSpec {
    /// Plate length, m.
    pub lx_m: f64,
    /// Plate width, m.
    pub ly_m: f64,
    /// Elements along x.
    pub nx: usize,
    /// Elements along y.
    pub ny: usize,
    /// Plate thickness, mm.
    pub thickness_mm: f64,
    /// Smeared component mass, kg/m².
    pub smeared_mass_kg_m2: f64,
    /// Laminate material.
    pub material: MaterialKind,
}

impl FemPlateSpec {
    /// Model-level fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("serve.fem_plate");
        self.hash_into(&mut fp);
        fp.finish()
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        finite(tag, "lx_m", self.lx_m)?;
        finite(tag, "ly_m", self.ly_m)?;
        finite(tag, "thickness_mm", self.thickness_mm)?;
        finite(tag, "smeared_mass_kg_m2", self.smeared_mass_kg_m2)
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        fp.write_f64(self.lx_m);
        fp.write_f64(self.ly_m);
        fp.write_usize(self.nx);
        fp.write_usize(self.ny);
        fp.write_f64(self.thickness_mm);
        fp.write_f64(self.smeared_mass_kg_m2);
        fp.write_u8(match self.material {
            MaterialKind::Aluminum => 0,
            MaterialKind::Copper => 1,
            MaterialKind::Fr4 => 2,
        });
    }
}

/// The time-integration scheme of a transient request — the wire-safe
/// mirror of `aeropack_mission::Scheme`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// First-order backward Euler.
    BackwardEuler,
    /// Second-order trapezoidal rule.
    Trapezoidal,
}

impl SchemeKind {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            Self::BackwardEuler => "backward_euler",
            Self::Trapezoidal => "trapezoidal",
        }
    }

    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "backward_euler" => Some(Self::BackwardEuler),
            "trapezoidal" => Some(Self::Trapezoidal),
            _ => None,
        }
    }

    /// The mission-crate scheme this tag denotes.
    pub fn scheme(self) -> aeropack_mission::Scheme {
        match self {
            Self::BackwardEuler => aeropack_mission::Scheme::BackwardEuler,
            Self::Trapezoidal => aeropack_mission::Scheme::Trapezoidal,
        }
    }
}

/// Which mission profile a transient request flies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MissionSpec {
    /// An ISA climb–cruise–descent flight: the plate convects from its
    /// top face with the altitude-derated film coefficient
    /// (`PlateSpec::h_w_m2k` at sea level) into the ISA ambient.
    ClimbCruiseDescent {
        /// Cruise altitude, m.
        cruise_altitude_m: f64,
        /// Climb duration, s.
        climb_s: f64,
        /// Cruise duration, s.
        cruise_s: f64,
        /// Descent duration, s.
        descent_s: f64,
    },
    /// Repeated 90-minute LEO sun/eclipse cycles: the plate's top face
    /// radiates to deep space and absorbs the orbit's solar/albedo/IR
    /// flux.
    OrbitCycle {
        /// Number of orbits.
        cycles: usize,
        /// Radiator emissivity `ε ∈ (0, 1]`.
        emissivity: f64,
        /// Radiator absorptivity `α ∈ [0, 1]`.
        absorptivity: f64,
    },
}

impl MissionSpec {
    /// Stable wire tag of the mission kind.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::ClimbCruiseDescent { .. } => "climb_cruise_descent",
            Self::OrbitCycle { .. } => "orbit_cycle",
        }
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        match *self {
            Self::ClimbCruiseDescent {
                cruise_altitude_m,
                climb_s,
                cruise_s,
                descent_s,
            } => {
                finite(tag, "cruise_altitude_m", cruise_altitude_m)?;
                finite(tag, "climb_s", climb_s)?;
                finite(tag, "cruise_s", cruise_s)?;
                finite(tag, "descent_s", descent_s)
            }
            Self::OrbitCycle {
                emissivity,
                absorptivity,
                ..
            } => {
                finite(tag, "emissivity", emissivity)?;
                finite(tag, "absorptivity", absorptivity)
            }
        }
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        match *self {
            Self::ClimbCruiseDescent {
                cruise_altitude_m,
                climb_s,
                cruise_s,
                descent_s,
            } => {
                fp.write_u8(0);
                fp.write_f64(cruise_altitude_m);
                fp.write_f64(climb_s);
                fp.write_f64(cruise_s);
                fp.write_f64(descent_s);
            }
            Self::OrbitCycle {
                cycles,
                emissivity,
                absorptivity,
            } => {
                fp.write_u8(1);
                fp.write_usize(cycles);
                fp.write_f64(emissivity);
                fp.write_f64(absorptivity);
            }
        }
    }
}

/// A mission-profile transient of a dissipating plate: the plate model
/// of [`PlateSpec`] flown through a [`MissionSpec`] by the
/// `aeropack-mission` adaptive driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// The plate model (geometry, material, dissipation; `h_w_m2k` is
    /// the sea-level film coefficient for flight missions and unused
    /// for orbit missions).
    pub plate: PlateSpec,
    /// The mission flown.
    pub mission: MissionSpec,
    /// The time-integration scheme.
    pub scheme: SchemeKind,
    /// Fixed step length, s; `None` = adaptive stepping at the driver's
    /// default tolerances.
    pub fixed_dt_s: Option<f64>,
    /// Uniform initial temperature, °C.
    pub initial_c: f64,
}

impl TransientSpec {
    /// Model-level fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("serve.transient");
        self.hash_into(&mut fp);
        fp.finish()
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        self.plate.check_finite(tag)?;
        self.mission.check_finite(tag)?;
        if let Some(dt) = self.fixed_dt_s {
            finite(tag, "fixed_dt_s", dt)?;
        }
        finite(tag, "initial_c", self.initial_c)
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        self.plate.hash_into(&mut *fp);
        self.mission.hash_into(&mut *fp);
        fp.write_u8(match self.scheme {
            SchemeKind::BackwardEuler => 0,
            SchemeKind::Trapezoidal => 1,
        });
        match self.fixed_dt_s {
            Some(dt) => {
                fp.write_bool(true);
                fp.write_f64(dt);
            }
            None => fp.write_bool(false),
        }
        fp.write_f64(self.initial_c);
    }
}

/// A deterministic multi-objective packaging optimization run: the
/// `aeropack-optimize` NSGA-II search over cooling topology × TIM ×
/// board pitch × wall thickness, reported as a Pareto front over
/// (max ΔT, mass, MTBF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeSpec {
    /// Root seed of the run's single RNG stream (the reproducer: the
    /// same seed and spec give a bit-identical front at any worker
    /// thread count).
    pub seed: u64,
    /// Population size (≥ 2).
    pub population: usize,
    /// Offspring generations after the initial sample.
    pub generations: usize,
    /// Adverse tilt applied to gravity-sensitive devices, degrees.
    pub tilt_deg: f64,
    /// Cabin/bay ambient, °C.
    pub ambient_c: f64,
    /// Nominal box dissipation at power scale 1, W.
    pub base_power_w: f64,
}

impl OptimizeSpec {
    /// Model-level fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("serve.optimize");
        self.hash_into(&mut fp);
        fp.finish()
    }

    fn check_finite(&self, tag: &str) -> Result<(), Error> {
        finite(tag, "tilt_deg", self.tilt_deg)?;
        finite(tag, "ambient_c", self.ambient_c)?;
        finite(tag, "base_power_w", self.base_power_w)
    }

    fn hash_into(&self, fp: &mut Fingerprint) {
        fp.write_u64(self.seed);
        fp.write_usize(self.population);
        fp.write_usize(self.generations);
        fp.write_f64(self.tilt_deg);
        fp.write_f64(self.ambient_c);
        fp.write_f64(self.base_power_w);
    }
}

/// One analysis the service can run — the single typed entry point for
/// every workload in the workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisRequest {
    /// Maximum SEB power holding ΔT(PCB−air) under a limit (the Fig 10
    /// capability anchors).
    SebCapability {
        /// Box configuration.
        spec: SebSpec,
        /// ΔT limit, K.
        dt_limit_k: f64,
    },
    /// One SEB operating point at a given power.
    SebOperatingPoint {
        /// Box configuration.
        spec: SebSpec,
        /// Dissipated power, W.
        power_w: f64,
    },
    /// ΔT(PCB−air) across a power grid for one configuration (a whole
    /// Fig 10 column).
    SebPowerSweep {
        /// Box configuration.
        spec: SebSpec,
        /// Power grid, W.
        powers_w: Vec<f64>,
    },
    /// Steady finite-volume field of a plate, with sources multiplied
    /// by `scale` (1.0 = nominal). Requests sharing a [`PlateSpec`]
    /// are coalesced into one multi-RHS solve.
    FvSteady {
        /// Plate definition.
        spec: PlateSpec,
        /// Source multiplier.
        scale: f64,
    },
    /// Steady Level-2 board field with sources multiplied by `scale`.
    /// Requests sharing a [`BoardSpec`] are coalesced.
    BoardSteady {
        /// Board definition.
        spec: BoardSpec,
        /// Source multiplier.
        scale: f64,
    },
    /// Static deflection under a centre point load.
    FemStatic {
        /// Plate definition.
        spec: FemPlateSpec,
        /// Centre load, N (positive = transverse).
        load_n: f64,
    },
    /// Natural frequencies of the simply-supported plate.
    FemModal {
        /// Plate definition.
        spec: FemPlateSpec,
        /// Number of modes to extract.
        n_modes: usize,
    },
    /// A mission-profile transient through the `aeropack-mission`
    /// adaptive driver.
    Transient {
        /// Plate + mission + integration settings.
        spec: TransientSpec,
    },
    /// A multi-objective packaging optimization run (ΔT × mass × MTBF
    /// Pareto front over the cooling-topology design space).
    Optimize {
        /// Run definition.
        spec: OptimizeSpec,
    },
    /// Harmonic base-excitation transmissibility sweep at the plate
    /// centre.
    FemHarmonic {
        /// Plate definition.
        spec: FemPlateSpec,
        /// Modal damping ratio.
        damping: f64,
        /// Sweep start, Hz.
        f_min_hz: f64,
        /// Sweep end, Hz.
        f_max_hz: f64,
        /// Number of sweep points.
        points: usize,
    },
}

impl AnalysisRequest {
    /// Stable wire tag of the request variant.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::SebCapability { .. } => "seb_capability",
            Self::SebOperatingPoint { .. } => "seb_operating_point",
            Self::SebPowerSweep { .. } => "seb_power_sweep",
            Self::FvSteady { .. } => "fv_steady",
            Self::BoardSteady { .. } => "board_steady",
            Self::FemStatic { .. } => "fem_static",
            Self::FemModal { .. } => "fem_modal",
            Self::Transient { .. } => "transient",
            Self::Optimize { .. } => "optimize",
            Self::FemHarmonic { .. } => "fem_harmonic",
        }
    }

    /// Rejects a request carrying a non-finite number, naming the
    /// field. JSON has no non-finite numbers, so this holds in-process
    /// requests to what the wire can carry; the service runs it before
    /// [`fingerprint`](Self::fingerprint), which panics on NaN.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] for the first non-finite field.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let tag = self.tag();
        match self {
            Self::SebCapability { spec, dt_limit_k } => {
                spec.check_finite(tag)?;
                finite(tag, "dt_limit_k", *dt_limit_k)
            }
            Self::SebOperatingPoint { spec, power_w } => {
                spec.check_finite(tag)?;
                finite(tag, "power_w", *power_w)
            }
            Self::SebPowerSweep { spec, powers_w } => {
                spec.check_finite(tag)?;
                powers_w
                    .iter()
                    .try_for_each(|&p| finite(tag, "powers_w", p))
            }
            Self::FvSteady { spec, scale } => {
                spec.check_finite(tag)?;
                finite(tag, "scale", *scale)
            }
            Self::BoardSteady { spec, scale } => {
                spec.check_finite(tag)?;
                finite(tag, "scale", *scale)
            }
            Self::FemStatic { spec, load_n } => {
                spec.check_finite(tag)?;
                finite(tag, "load_n", *load_n)
            }
            Self::FemModal { spec, .. } => spec.check_finite(tag),
            Self::Transient { spec } => spec.check_finite(tag),
            Self::Optimize { spec } => spec.check_finite(tag),
            Self::FemHarmonic {
                spec,
                damping,
                f_min_hz,
                f_max_hz,
                ..
            } => {
                spec.check_finite(tag)?;
                finite(tag, "damping", *damping)?;
                finite(tag, "f_min_hz", *f_min_hz)?;
                finite(tag, "f_max_hz", *f_max_hz)
            }
        }
    }

    /// The content-addressed result-cache key: a canonical hash of the
    /// variant and every parameter. Invariant under how the request
    /// value was produced. The underlying [`Fingerprint`] rejects NaN
    /// inputs with a panic, so the service refuses non-finite requests
    /// before it calls this.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("serve.request");
        fp.write_str(self.tag());
        match self {
            Self::SebCapability { spec, dt_limit_k } => {
                spec.hash_into(&mut fp);
                fp.write_f64(*dt_limit_k);
            }
            Self::SebOperatingPoint { spec, power_w } => {
                spec.hash_into(&mut fp);
                fp.write_f64(*power_w);
            }
            Self::SebPowerSweep { spec, powers_w } => {
                spec.hash_into(&mut fp);
                fp.write_f64s(powers_w);
            }
            Self::FvSteady { spec, scale } => {
                spec.hash_into(&mut fp);
                fp.write_f64(*scale);
            }
            Self::BoardSteady { spec, scale } => {
                spec.hash_into(&mut fp);
                fp.write_f64(*scale);
            }
            Self::FemStatic { spec, load_n } => {
                spec.hash_into(&mut fp);
                fp.write_f64(*load_n);
            }
            Self::FemModal { spec, n_modes } => {
                spec.hash_into(&mut fp);
                fp.write_usize(*n_modes);
            }
            Self::Transient { spec } => spec.hash_into(&mut fp),
            Self::Optimize { spec } => spec.hash_into(&mut fp),
            Self::FemHarmonic {
                spec,
                damping,
                f_min_hz,
                f_max_hz,
                points,
            } => {
                spec.hash_into(&mut fp);
                fp.write_f64(*damping);
                fp.write_f64(*f_min_hz);
                fp.write_f64(*f_max_hz);
                fp.write_usize(*points);
            }
        }
        fp.finish()
    }

    /// The coalescing key, when this request can batch with others:
    /// requests returning `Some(k)` with equal `k` share one model and
    /// differ only in their source scale, so a worker folds them into
    /// a single assembly + multi-RHS solve.
    pub fn coalesce_key(&self) -> Option<u64> {
        match self {
            Self::FvSteady { spec, .. } => Some(spec.fingerprint()),
            Self::BoardSteady { spec, .. } => Some(spec.fingerprint()),
            _ => None,
        }
    }

    /// The source scale of a coalescible request.
    pub(crate) fn scale(&self) -> Option<f64> {
        match self {
            Self::FvSteady { scale, .. } | Self::BoardSteady { scale, .. } => Some(*scale),
            _ => None,
        }
    }
}

/// The result of one [`AnalysisRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisResponse {
    /// Result of [`AnalysisRequest::SebCapability`].
    Capability {
        /// Maximum power holding the ΔT limit, W.
        watts: f64,
    },
    /// Result of [`AnalysisRequest::SebOperatingPoint`].
    OperatingPoint {
        /// Dissipated power, W.
        power_w: f64,
        /// PCB reference temperature, °C.
        pcb_c: f64,
        /// Box wall temperature, °C.
        wall_c: f64,
        /// Power carried by the loop heat pipes, W.
        lhp_w: f64,
        /// ΔT(PCB − ambient), K.
        dt_pcb_air_k: f64,
    },
    /// Result of [`AnalysisRequest::SebPowerSweep`]: one entry per
    /// requested power; `None` marks a dry-out point (the capability
    /// cliff the paper's Fig 10 curves end at).
    PowerSweep {
        /// ΔT(PCB − ambient) per power, K; `None` = dry-out.
        dt_pcb_air_k: Vec<Option<f64>>,
    },
    /// Result of a steady FV/board solve: the field summary.
    Field {
        /// Minimum cell temperature, °C.
        min_c: f64,
        /// Maximum cell temperature, °C.
        max_c: f64,
        /// Mean cell temperature, °C.
        mean_c: f64,
        /// Number of cells solved.
        cells: usize,
    },
    /// Result of [`AnalysisRequest::Transient`]: the mission's end
    /// state and trajectory evidence.
    Transient {
        /// Minimum cell temperature at end of mission, °C.
        final_min_c: f64,
        /// Maximum cell temperature at end of mission, °C.
        final_max_c: f64,
        /// Mean temperature at end of mission, °C.
        final_mean_c: f64,
        /// Accepted steps.
        steps: usize,
        /// Rejected attempts.
        rejected: usize,
        /// Solves that reused cached preconditioner factors.
        factor_reuses: usize,
        /// Bit-exact trajectory fingerprint (step sequence + final
        /// field).
        trajectory_hash: u64,
    },
    /// Result of [`AnalysisRequest::FemStatic`].
    Static {
        /// Peak transverse deflection magnitude, m.
        max_deflection_m: f64,
    },
    /// Result of [`AnalysisRequest::FemModal`].
    Modal {
        /// Natural frequencies, Hz, ascending.
        frequencies_hz: Vec<f64>,
    },
    /// Result of [`AnalysisRequest::Optimize`]: the Pareto front in
    /// its canonical order, one entry per front design across the
    /// parallel arrays.
    Pareto {
        /// Cooling topology tag of each front design.
        topologies: Vec<String>,
        /// Worst junction rise over ambient, K.
        dt_k: Vec<f64>,
        /// Packaged mass, kg.
        mass_kg: Vec<f64>,
        /// Box-level MTBF, hours.
        mtbf_h: Vec<f64>,
        /// Bit-exact fingerprint of the whole front (genomes +
        /// objectives) — the thread-invariance witness.
        front_hash: u64,
        /// Objective evaluations performed by the run.
        evaluations: u64,
    },
    /// Result of [`AnalysisRequest::FemHarmonic`].
    Harmonic {
        /// Frequency of the peak response, Hz.
        peak_hz: f64,
        /// Peak transmissibility (dimensionless).
        peak_transmissibility: f64,
        /// Number of sweep points evaluated.
        points: usize,
    },
}

impl AnalysisResponse {
    /// Stable wire tag of the response variant.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Capability { .. } => "capability",
            Self::OperatingPoint { .. } => "operating_point",
            Self::PowerSweep { .. } => "power_sweep",
            Self::Field { .. } => "field",
            Self::Transient { .. } => "transient",
            Self::Static { .. } => "static",
            Self::Modal { .. } => "modal",
            Self::Pareto { .. } => "pareto",
            Self::Harmonic { .. } => "harmonic",
        }
    }
}
