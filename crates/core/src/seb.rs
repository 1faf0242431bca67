//! The COSEE Seat Electronic Box model — the system behind the paper's
//! Fig 10.
//!
//! Heat path: components → PCB → (heat pipes + TIM joints) → SEB wall →
//! two parallel escapes:
//!
//! 1. natural convection + radiation from the box surface into the
//!    (enclosed) under-seat air, and
//! 2. optionally, loop heat pipes into the seat mechanical structure,
//!    which acts as a finned natural-convection sink.
//!
//! The solver finds the wall temperature at which the two escapes
//! balance the dissipation, with the LHP operating point (including
//! tilt) and all convection coefficients resolved self-consistently.

use aeropack_materials::{air_at_sea_level, Material};
use aeropack_sweep::{ScenarioStats, Sweep, SweepStats};
use aeropack_thermal::{
    film_temperature, natural_convection_vertical_plate, radiation_coefficient,
};
use aeropack_tim::TimJoint;
use aeropack_twophase::{HeatPipe, LoopHeatPipe, TwoPhaseError};
use aeropack_units::{
    Area, Celsius, Length, Power, Pressure, TempDelta, ThermalConductance, ThermalResistance,
};

use crate::error::DesignError;

/// The seat mechanical structure used as the LHP heat sink: rods of a
/// given material acting as natural-convection fins, with the LHP
/// condensers clamped over part of their length.
#[derive(Debug, Clone)]
pub struct SeatStructure {
    /// Rod material (aluminium in the first COSEE seats, carbon
    /// composite in the second campaign).
    pub material: Material,
    /// Length of each rod.
    pub rod_length: Length,
    /// Rod diameter.
    pub rod_diameter: Length,
    /// Number of rods ("two main aluminum rods").
    pub rod_count: usize,
    /// Extra wetted area from brackets and seat pans, as a multiplier on
    /// the bare rod area.
    pub area_multiplier: f64,
    /// Fraction of the rod length covered by the LHP condenser.
    pub condenser_coverage: f64,
    /// Surface emissivity.
    pub emissivity: f64,
}

impl SeatStructure {
    /// The COSEE aluminium seat structure.
    pub fn aluminum() -> Self {
        Self {
            material: Material::aluminum_6061(),
            rod_length: Length::new(1.2),
            rod_diameter: Length::from_millimeters(35.0),
            rod_count: 2,
            area_multiplier: 1.2,
            condenser_coverage: 0.25,
            emissivity: 0.8,
        }
    }

    /// The COSEE carbon-composite seat structure ("rather poor thermal
    /// conductivity").
    pub fn carbon_composite() -> Self {
        Self {
            material: Material::carbon_composite(),
            ..Self::aluminum()
        }
    }

    /// Total wetted area.
    pub fn wetted_area(&self) -> Area {
        Area::new(
            std::f64::consts::PI
                * self.rod_diameter.value()
                * self.rod_length.value()
                * self.rod_count as f64
                * self.area_multiplier,
        )
    }

    /// Conductance from the structure (at `surface`) to the ambient air,
    /// including the fin efficiency of the rod sections beyond the
    /// condenser clamp.
    ///
    /// # Errors
    ///
    /// Propagates correlation errors.
    pub fn sink_conductance(
        &self,
        surface: Celsius,
        ambient: Celsius,
    ) -> Result<ThermalConductance, DesignError> {
        let film = film_temperature(surface, ambient);
        let air = air_at_sea_level(film);
        // Guard against zero ΔT (no convection estimate possible): use
        // at least a 1 K driving difference for the correlation.
        let t_for_corr = if (surface - ambient).kelvin().abs() < 1.0 {
            ambient + TempDelta::new(1.0)
        } else {
            surface
        };
        let h_c = natural_convection_vertical_plate(&air, t_for_corr, self.rod_length)?;
        let h_r = radiation_coefficient(self.emissivity, t_for_corr, ambient)?;
        let h = (h_c + h_r).value();
        let k = self.material.thermal_conductivity.value();
        let d = self.rod_diameter.value();
        let l_fin = self.rod_length.value() * (1.0 - self.condenser_coverage);
        // Cylindrical fin parameter m = √(4h/(k·d)).
        let m = (4.0 * h / (k * d)).sqrt();
        let eta = if m * l_fin < 1e-9 {
            1.0
        } else {
            (m * l_fin).tanh() / (m * l_fin)
        };
        let area = self.wetted_area().value();
        let g = h * area * (self.condenser_coverage + (1.0 - self.condenser_coverage) * eta);
        Ok(ThermalConductance::new(g))
    }
}

/// The LHP installation between the SEB wall and the seat structure.
#[derive(Debug, Clone)]
pub struct LhpInstallation {
    /// The loop-heat-pipe model.
    pub lhp: LoopHeatPipe,
    /// Number of loops ("two LHPs transfer the heat from the seat").
    pub count: usize,
    /// Adverse tilt in radians (0 = horizontal seat; the paper tests
    /// 22°).
    pub tilt_rad: f64,
}

/// The complete SEB thermal model.
#[derive(Debug, Clone)]
pub struct SebModel {
    /// Box outer dimensions, metres.
    pub box_dimensions: (f64, f64, f64),
    /// Fraction of the box's free-convection capability that survives
    /// being "buried in small enclosed zones" under the seat.
    pub enclosure_factor: f64,
    /// Box surface emissivity.
    pub emissivity: f64,
    /// The board-to-wall heat pipes.
    pub heat_pipe: HeatPipe,
    /// Number of heat pipes in parallel.
    pub heat_pipe_count: usize,
    /// TIM joint at each end of the heat-pipe path.
    pub tim: TimJoint,
    /// TIM contact area per joint.
    pub tim_area: Area,
    /// TIM assembly pressure.
    pub tim_pressure: Pressure,
    /// The LHP escape, if installed.
    pub lhp: Option<LhpInstallation>,
    /// The seat structure sink (used only when `lhp` is present).
    pub seat: SeatStructure,
}

/// The solved operating state of the SEB at one power level.
#[derive(Debug, Clone, Copy)]
pub struct SebOperatingState {
    /// Dissipated power.
    pub power: Power,
    /// PCB reference temperature (the paper's `Tpcb1`).
    pub pcb_temperature: Celsius,
    /// Box wall temperature.
    pub wall_temperature: Celsius,
    /// Seat structure temperature at the condenser (if LHPs installed).
    pub seat_temperature: Option<Celsius>,
    /// Heat carried by the LHPs.
    pub lhp_power: Power,
    /// Heat leaving by box convection/radiation.
    pub box_power: Power,
}

impl SebOperatingState {
    /// The Fig 10 ordinate: `T_pcb − T_air`.
    pub fn dt_pcb_air(&self, ambient: Celsius) -> TempDelta {
        self.pcb_temperature - ambient
    }
}

impl SebModel {
    /// The COSEE demonstrator configuration: a seat electronic box with
    /// three copper/water heat pipes to the wall and (optionally) two
    /// ammonia LHPs to the given seat structure.
    ///
    /// # Errors
    ///
    /// Propagates device construction errors (cannot occur for these
    /// values).
    pub fn cosee(seat: SeatStructure, with_lhp: bool, tilt_rad: f64) -> Result<Self, DesignError> {
        let heat_pipe = HeatPipe::copper_water_6mm(
            Length::from_millimeters(80.0),
            Length::from_millimeters(150.0),
            Length::from_millimeters(80.0),
        )?;
        let lhp = if with_lhp {
            Some(LhpInstallation {
                lhp: LoopHeatPipe::ammonia_seb(Length::new(0.8))?,
                count: 2,
                tilt_rad,
            })
        } else {
            None
        };
        Ok(Self {
            box_dimensions: (0.35, 0.25, 0.08),
            enclosure_factor: 0.21,
            emissivity: 0.8,
            heat_pipe,
            heat_pipe_count: 3,
            tim: TimJoint::conventional_grease()?,
            tim_area: Area::from_square_centimeters(20.0),
            tim_pressure: Pressure::from_kilopascals(200.0),
            lhp,
            seat,
        })
    }

    /// Box external surface area.
    pub fn box_area(&self) -> Area {
        let (x, y, z) = self.box_dimensions;
        Area::new(2.0 * (x * y + y * z + x * z))
    }

    /// The internal PCB→wall resistance: heat pipes in parallel plus the
    /// two TIM joints in series.
    ///
    /// # Errors
    ///
    /// Returns the heat-pipe dry-out error if `power` exceeds the pipes'
    /// combined transport capability.
    pub fn internal_resistance(
        &self,
        power: Power,
        pcb_temperature: Celsius,
    ) -> Result<ThermalResistance, DesignError> {
        let per_pipe = power / self.heat_pipe_count as f64;
        let t_vapor = pcb_temperature.min(self.heat_pipe.fluid().max_temperature());
        let r_hp = self
            .heat_pipe
            .operate(per_pipe, t_vapor, 0.0)
            .map_err(DesignError::TwoPhase)?;
        let r_tim = self
            .tim
            .area_resistance(self.tim_pressure)?
            .over_area(self.tim_area);
        Ok(ThermalResistance::new(r_hp.value() / self.heat_pipe_count as f64) + r_tim + r_tim)
    }

    /// Conductance of the box surface into the enclosed under-seat air.
    fn box_conductance(
        &self,
        wall: Celsius,
        ambient: Celsius,
    ) -> Result<ThermalConductance, DesignError> {
        let film = film_temperature(wall, ambient);
        let air = air_at_sea_level(film);
        let t_for_corr = if (wall - ambient).kelvin().abs() < 1.0 {
            ambient + TempDelta::new(1.0)
        } else {
            wall
        };
        let h_c = natural_convection_vertical_plate(
            &air,
            t_for_corr,
            Length::new(self.box_dimensions.2),
        )?;
        let h_r = radiation_coefficient(self.emissivity, t_for_corr, ambient)?;
        Ok(ThermalConductance::new(
            (h_c + h_r).value() * self.box_area().value() * self.enclosure_factor,
        ))
    }

    /// Wall temperature sustained by box convection alone at `q_box`.
    fn wall_from_box(&self, q_box: Power, ambient: Celsius) -> Result<Celsius, DesignError> {
        let mut wall = ambient + TempDelta::new(15.0);
        for _ in 0..60 {
            let g = self.box_conductance(wall, ambient)?;
            let new = ambient + q_box / g;
            if (new - wall).kelvin().abs() < 1e-7 {
                return Ok(new);
            }
            wall = Celsius::new(0.5 * (wall.value() + new.value()));
        }
        Ok(wall)
    }

    /// Wall temperature required to push `q_seat` through the LHPs into
    /// the seat. `Ok(None)` means the LHPs cannot carry that load
    /// (dry-out) — the caller treats it as an infinite requirement.
    fn wall_from_seat(
        &self,
        q_seat: Power,
        ambient: Celsius,
    ) -> Result<Option<(Celsius, Celsius)>, DesignError> {
        let inst = self
            .lhp
            .as_ref()
            .expect("wall_from_seat called without an LHP installation");
        // Seat temperature from its sink conductance (fixed point).
        let mut seat = ambient + TempDelta::new(10.0);
        for _ in 0..60 {
            let g = self.seat.sink_conductance(seat, ambient)?;
            let new = ambient + q_seat / g;
            if (new - seat).kelvin().abs() < 1e-7 {
                seat = new;
                break;
            }
            seat = Celsius::new(0.5 * (seat.value() + new.value()));
        }
        let per_loop = q_seat / inst.count as f64;
        match inst.lhp.operating_point(per_loop, seat, inst.tilt_rad) {
            Ok(op) => Ok(Some((op.case_temperature, seat))),
            // Dry-out, or a loop driven off the property tables by an
            // overwhelmed sink: either way this seat share is not
            // sustainable and the split must move toward the box path.
            Err(TwoPhaseError::DryOut { .. }) | Err(TwoPhaseError::Fluid(_)) => Ok(None),
            Err(e) => Err(DesignError::TwoPhase(e)),
        }
    }

    /// Solves the SEB at a power level and cabin ambient.
    ///
    /// # Errors
    ///
    /// Returns a dry-out error when the internal heat pipes cannot carry
    /// the load, and propagates any solver/property failure. LHP
    /// saturation is not an error: the excess heat simply stays on the
    /// box-convection path (the box gets hotter).
    pub fn solve(&self, power: Power, ambient: Celsius) -> Result<SebOperatingState, DesignError> {
        let _span = aeropack_obs::span!("seb.solve");
        aeropack_obs::counter!("seb.solves");
        if power.value() <= 0.0 {
            return Err(DesignError::invalid("SEB power must be positive"));
        }
        let (wall, q_seat, seat_temp) = if self.lhp.is_some() {
            // Bisection on the seat share: wall_from_seat is increasing
            // in q_seat, wall_from_box(q − q_seat) is decreasing.
            let mut lo = Power::ZERO;
            let mut hi = power;
            // Shrink hi below the LHP dry-out boundary first.
            for _ in 0..40 {
                if self.wall_from_seat(hi, ambient)?.is_some() || hi.value() < 1e-6 {
                    break;
                }
                hi *= 0.8;
            }
            let mut best = (self.wall_from_box(power, ambient)?, Power::ZERO, None);
            if hi.value() > 1e-6 {
                for _ in 0..60 {
                    let mid = (lo + hi) * 0.5;
                    let seat_side = self.wall_from_seat(mid, ambient)?;
                    let box_side = self.wall_from_box(power - mid, ambient)?;
                    match seat_side {
                        Some((wall_seat, t_seat)) if wall_seat < box_side => {
                            lo = mid;
                            best = (box_side, mid, Some(t_seat));
                        }
                        _ => {
                            hi = mid;
                        }
                    }
                }
                // Refine the wall estimate at the converged split.
                let q_seat = (lo + hi) * 0.5;
                if let Some((wall_seat, t_seat)) = self.wall_from_seat(q_seat, ambient)? {
                    let box_side = self.wall_from_box(power - q_seat, ambient)?;
                    best = (
                        Celsius::new(0.5 * (wall_seat.value() + box_side.value())),
                        q_seat,
                        Some(t_seat),
                    );
                }
            }
            best
        } else {
            (self.wall_from_box(power, ambient)?, Power::ZERO, None)
        };

        // Internal drop (may dry out — that *is* an error for the SEB).
        let mut pcb = wall + TempDelta::new(5.0);
        for _ in 0..30 {
            let r_int = self.internal_resistance(power, pcb)?;
            let new = wall + r_int * power;
            if (new - pcb).kelvin().abs() < 1e-7 {
                pcb = new;
                break;
            }
            pcb = new;
        }

        Ok(SebOperatingState {
            power,
            pcb_temperature: pcb,
            wall_temperature: wall,
            seat_temperature: seat_temp,
            lhp_power: q_seat,
            box_power: power - q_seat,
        })
    }

    /// Like [`solve`](Self::solve), but also reports how the
    /// operating-point search went as [`SolverStats`] — the same
    /// observability contract the linear solvers offer.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_with_stats(
        &self,
        power: Power,
        ambient: Celsius,
    ) -> Result<(SebOperatingState, aeropack_solver::SolverStats), DesignError> {
        use aeropack_solver::{Method, Precond, SolverStats};
        let start = std::time::Instant::now();
        let state = self.solve(power, ambient)?;
        aeropack_obs::histogram!("seb.solve_seconds", start.elapsed().as_secs_f64());
        let stats = SolverStats {
            context: "SEB operating point",
            method: Method::Bisection,
            preconditioner: Precond::None,
            requested_preconditioner: Precond::None,
            unknowns: if self.lhp.is_some() { 3 } else { 2 },
            threads: 1,
            iterations: if self.lhp.is_some() { 60 } else { 0 },
            residual_history: Vec::new(),
            final_residual: 0.0,
            tolerance: 1e-7,
            wall_time: start.elapsed(),
            setup_seconds: 0.0,
            iterate_seconds: start.elapsed().as_secs_f64(),
            factorization: None,
            spectral: None,
        };
        Ok((state, stats))
    }

    /// Solves the whole Fig 10 grid — every `configs` entry at every
    /// power level — in one parallel call over the sweep engine.
    ///
    /// Returns one result row per configuration (in `configs` order,
    /// each row in `powers` order) plus the [`SweepStats`] roll-up of
    /// every operating-point search. Per-point failures (e.g. heat-pipe
    /// dry-out past the capability knee) are reported in place rather
    /// than aborting the rest of the grid.
    ///
    /// Results are bitwise identical at any thread count: scenarios are
    /// pure functions of `(config, power, ambient)` and the runner
    /// preserves ordering.
    #[allow(clippy::type_complexity)]
    pub fn power_sweep(
        configs: &[SebModel],
        powers: &[Power],
        ambient: Celsius,
        runner: &Sweep,
    ) -> (Vec<Vec<Result<SebOperatingState, DesignError>>>, SweepStats) {
        let _span = aeropack_obs::span!(
            "seb.power_sweep",
            configs = configs.len(),
            powers = powers.len()
        );
        let grid: Vec<(usize, Power)> = configs
            .iter()
            .enumerate()
            .flat_map(|(ci, _)| powers.iter().map(move |&p| (ci, p)))
            .collect();
        let (flat, stats) = runner.map_stats(&grid, |&(ci, p)| {
            let _point = aeropack_obs::span_labeled("seb.point", || format!("config={ci}"));
            match configs[ci].solve_with_stats(p, ambient) {
                Ok((state, st)) => (Ok(state), ScenarioStats::from_solver(&st)),
                Err(e) => {
                    aeropack_obs::counter!("seb.point_failures");
                    (Err(e), ScenarioStats::default())
                }
            }
        });
        let mut rows = Vec::with_capacity(configs.len());
        let mut flat = flat.into_iter();
        for _ in configs {
            rows.push(flat.by_ref().take(powers.len()).collect());
        }
        (rows, stats)
    }

    /// The heat-dissipation capability: the largest power whose
    /// PCB-to-air ΔT stays at or below `dt_limit` (Fig 10's reading at a
    /// constant PCB temperature).
    ///
    /// # Errors
    ///
    /// Propagates solver failures other than dry-out (dry-out simply
    /// caps the capability).
    pub fn capability(&self, dt_limit: TempDelta, ambient: Celsius) -> Result<Power, DesignError> {
        let _span = aeropack_obs::span!("seb.capability");
        let ok = |p: f64| -> Result<bool, DesignError> {
            aeropack_obs::counter!("seb.capability_probes");
            match self.solve(Power::new(p), ambient) {
                Ok(state) => Ok(state.dt_pcb_air(ambient).kelvin() <= dt_limit.kelvin()),
                Err(DesignError::TwoPhase(TwoPhaseError::DryOut { .. })) => Ok(false),
                Err(e) => Err(e),
            }
        };
        let mut lo = 1.0;
        let mut hi;
        if ok(lo)? {
            hi = 2.0;
            while ok(hi)? {
                lo = hi;
                hi *= 2.0;
                if hi > 4096.0 {
                    return Ok(Power::new(lo));
                }
            }
        } else {
            // A tight ΔT limit can put the capability below 1 W. Bisect
            // the unit interval instead of rounding the answer to zero
            // (the lower endpoint is never evaluated: solve rejects
            // non-positive power, and every bisection probe is > 0).
            lo = 0.0;
            hi = 1.0;
        }
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if ok(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Power::new(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AMBIENT: Celsius = Celsius::new(25.0);

    fn no_lhp() -> SebModel {
        SebModel::cosee(SeatStructure::aluminum(), false, 0.0).unwrap()
    }

    fn with_lhp(tilt_deg: f64) -> SebModel {
        SebModel::cosee(SeatStructure::aluminum(), true, tilt_deg.to_radians()).unwrap()
    }

    #[test]
    fn fig10_without_lhp_anchor() {
        // Paper: without LHP, ~40 W at ΔT ≈ 60 °C.
        let state = no_lhp().solve(Power::new(40.0), AMBIENT).unwrap();
        let dt = state.dt_pcb_air(AMBIENT).kelvin();
        assert!(
            (45.0..75.0).contains(&dt),
            "ΔT(40 W, no LHP) = {dt:.1} K (paper ≈ 60)"
        );
        assert_eq!(state.lhp_power, Power::ZERO);
    }

    #[test]
    fn fig10_capability_improvement() {
        // Paper: +150 % capability at constant PCB temperature
        // (40 W → 100 W). Accept the 2×–3.2× band.
        let dt = TempDelta::new(60.0);
        let base = no_lhp().capability(dt, AMBIENT).unwrap();
        let lhp = with_lhp(0.0).capability(dt, AMBIENT).unwrap();
        let gain = lhp.value() / base.value();
        assert!(
            (2.0..3.4).contains(&gain),
            "capability {base:.0} → {lhp:.0}: gain {gain:.2} (paper 2.5×)"
        );
    }

    #[test]
    fn fig10_temperature_drop_at_40w() {
        // Paper: at 40 W the HP+LHP system lowers the PCB ~32 °C.
        let t_base = no_lhp()
            .solve(Power::new(40.0), AMBIENT)
            .unwrap()
            .pcb_temperature;
        let t_lhp = with_lhp(0.0)
            .solve(Power::new(40.0), AMBIENT)
            .unwrap()
            .pcb_temperature;
        let drop = (t_base - t_lhp).kelvin();
        assert!(
            (20.0..45.0).contains(&drop),
            "drop at 40 W = {drop:.1} K (paper 32)"
        );
    }

    #[test]
    fn fig10_tilt_penalty_is_small() {
        // Paper: the 22° curve sits slightly above horizontal.
        let q = Power::new(80.0);
        let flat = with_lhp(0.0).solve(q, AMBIENT).unwrap();
        let tilted = with_lhp(22.0).solve(q, AMBIENT).unwrap();
        let penalty = (tilted.pcb_temperature - flat.pcb_temperature).kelvin();
        assert!(
            (-0.5..8.0).contains(&penalty),
            "22° tilt penalty = {penalty:.2} K"
        );
    }

    #[test]
    fn lhp_carries_majority_share_at_high_power() {
        // Paper: "power dissipated by loop heat pipes: 58 W" at ~100 W.
        let state = with_lhp(0.0).solve(Power::new(100.0), AMBIENT).unwrap();
        let share = state.lhp_power.value() / 100.0;
        assert!(
            (0.4..0.8).contains(&share),
            "LHP share = {:.0}% ({} of 100 W)",
            share * 100.0,
            state.lhp_power
        );
    }

    #[test]
    fn composite_seat_sits_between() {
        // Paper: composite gives +80 % (vs +150 % for aluminium).
        let dt = TempDelta::new(60.0);
        let base = no_lhp().capability(dt, AMBIENT).unwrap();
        let alu = with_lhp(0.0).capability(dt, AMBIENT).unwrap();
        let comp = SebModel::cosee(SeatStructure::carbon_composite(), true, 0.0)
            .unwrap()
            .capability(dt, AMBIENT)
            .unwrap();
        assert!(
            comp.value() > 1.3 * base.value(),
            "composite must still improve: {comp} vs {base}"
        );
        assert!(
            comp.value() < alu.value(),
            "composite must trail aluminium: {comp} vs {alu}"
        );
    }

    #[test]
    fn energy_balance() {
        let state = with_lhp(0.0).solve(Power::new(70.0), AMBIENT).unwrap();
        let sum = state.lhp_power.value() + state.box_power.value();
        assert!((sum - 70.0).abs() < 1e-6);
        assert!(state.wall_temperature < state.pcb_temperature);
        if let Some(seat) = state.seat_temperature {
            assert!(seat < state.wall_temperature);
            assert!(seat > AMBIENT);
        }
    }

    #[test]
    fn monotone_dt_vs_power() {
        let model = with_lhp(0.0);
        let mut last = 0.0;
        for p in [20.0, 40.0, 60.0, 80.0] {
            let dt = model
                .solve(Power::new(p), AMBIENT)
                .unwrap()
                .dt_pcb_air(AMBIENT)
                .kelvin();
            assert!(dt > last, "ΔT must grow with power");
            last = dt;
        }
    }

    #[test]
    fn invalid_power_rejected() {
        assert!(no_lhp().solve(Power::ZERO, AMBIENT).is_err());
    }

    #[test]
    fn capability_resolves_sub_watt_limits() {
        // Regression: a ΔT limit tight enough that even 1 W violates it
        // used to make capability() return exactly 0 W. The capability
        // is small but real — the bisection must find it in (0, 1) W.
        let model = no_lhp();
        let dt = TempDelta::new(1.0);
        let cap = model.capability(dt, AMBIENT).unwrap();
        assert!(
            cap.value() > 0.0 && cap.value() < 1.0,
            "sub-watt capability, got {cap}"
        );
        // The reported capability must actually meet the limit, and a
        // slightly larger power must violate it.
        let dt_at_cap = model
            .solve(cap, AMBIENT)
            .unwrap()
            .dt_pcb_air(AMBIENT)
            .kelvin();
        assert!(dt_at_cap <= 1.0 + 1e-6, "ΔT at capability {dt_at_cap:.3}");
        let dt_above = model
            .solve(cap * 1.2, AMBIENT)
            .unwrap()
            .dt_pcb_air(AMBIENT)
            .kelvin();
        assert!(dt_above > 1.0, "ΔT just above capability {dt_above:.3}");
        // A zero-capability verdict is still possible in principle, but
        // ordinary limits keep returning sensible >1 W answers.
        let normal = model.capability(TempDelta::new(60.0), AMBIENT).unwrap();
        assert!(normal.value() > 1.0);
    }

    #[test]
    fn obs_records_seb_spans_and_counters() {
        let reg = std::sync::Arc::new(aeropack_obs::Registry::new());
        {
            let _obs = aeropack_obs::scoped(reg.clone());
            let configs = [no_lhp()];
            let powers = [Power::new(20.0), Power::new(40.0)];
            let _ = SebModel::power_sweep(&configs, &powers, AMBIENT, &Sweep::new(2));
        }
        assert_eq!(reg.counter("seb.solves"), 2);
        let snap = reg.snapshot();
        assert!(snap
            .spans
            .iter()
            .any(|s| s.path.starts_with("seb.power_sweep{")));
        assert!(snap
            .spans
            .iter()
            .any(|s| s.path.contains("seb.point{config=0}")));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "seb.solve_seconds"));
    }

    #[test]
    fn power_sweep_matches_pointwise_solves_at_any_thread_count() {
        let configs = [no_lhp(), with_lhp(0.0), with_lhp(22.0)];
        let powers: Vec<Power> = (1..=6).map(|i| Power::new(15.0 * i as f64)).collect();
        let reference: Vec<Vec<Option<f64>>> = configs
            .iter()
            .map(|m| {
                powers
                    .iter()
                    .map(|&p| m.solve(p, AMBIENT).ok().map(|s| s.pcb_temperature.value()))
                    .collect()
            })
            .collect();
        for threads in [1, 2, 8] {
            let (rows, stats) =
                SebModel::power_sweep(&configs, &powers, AMBIENT, &Sweep::new(threads));
            assert_eq!(rows.len(), configs.len());
            assert_eq!(stats.scenarios, configs.len() * powers.len());
            for (ci, row) in rows.iter().enumerate() {
                assert_eq!(row.len(), powers.len());
                for (pi, point) in row.iter().enumerate() {
                    let got = point.as_ref().ok().map(|s| s.pcb_temperature.value());
                    // Bitwise identity with the serial pointwise path.
                    assert_eq!(got, reference[ci][pi], "threads={threads} ci={ci} pi={pi}");
                }
            }
        }
    }
}
