//! Rack air-flow distribution: a fan (or ARINC 600 supply) feeding
//! parallel card channels — the hydraulic layer of the Fig 6 computer
//! racks. The solver intersects the fan curve with the parallel
//! square-law channel impedances and reports the per-channel mass
//! flows, exposing the classic failure mode: one obstructed channel
//! starving its card while the rack total still looks healthy.

use std::time::Instant;

use aeropack_materials::AirState;
use aeropack_solver::{Method, Precond, SolverStats};
use aeropack_units::{Length, MassFlowRate, Pressure};

use crate::error::ThermalError;

/// A fan (or supply) curve: `Δp = p₀ · (1 − (ṁ/ṁ_max)²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanCurve {
    /// Stall (zero-flow) pressure.
    pub stall_pressure: Pressure,
    /// Free-delivery (zero-pressure) mass flow.
    pub max_flow: MassFlowRate,
}

impl FanCurve {
    /// Builds a fan curve.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive parameters.
    pub fn new(stall_pressure: Pressure, max_flow: MassFlowRate) -> Result<Self, ThermalError> {
        if stall_pressure.value() <= 0.0 || max_flow.value() <= 0.0 {
            return Err(ThermalError::invalid(
                "fan curve parameters must be positive",
            ));
        }
        Ok(Self {
            stall_pressure,
            max_flow,
        })
    }

    /// Pressure available at a given delivered flow (zero beyond
    /// free delivery).
    pub fn pressure_at(&self, flow: MassFlowRate) -> Pressure {
        let r = flow.value() / self.max_flow.value();
        Pressure::new((self.stall_pressure.value() * (1.0 - r * r)).max(0.0))
    }
}

/// A card-channel hydraulic impedance: `Δp = k·ṁ²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelImpedance {
    k: f64,
}

impl ChannelImpedance {
    /// Builds an impedance directly from its coefficient `k`
    /// (Pa·s²/kg²).
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive coefficient.
    pub fn from_coefficient(k: f64) -> Result<Self, ThermalError> {
        if k <= 0.0 {
            return Err(ThermalError::invalid(
                "impedance coefficient must be positive",
            ));
        }
        Ok(Self { k })
    }

    /// Builds the impedance of a rectangular card channel
    /// (`width × gap × length`) from a friction-factor/minor-loss
    /// closure: `Δp = (f·L/D_h + ΣK) · ṁ² / (2·ρ·A²)` with f = 0.05
    /// (rough developing channel) and entry+exit losses ΣK = 1.5.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive geometry.
    pub fn card_channel(
        air: &AirState,
        width: Length,
        gap: Length,
        length: Length,
    ) -> Result<Self, ThermalError> {
        if width.value() <= 0.0 || gap.value() <= 0.0 || length.value() <= 0.0 {
            return Err(ThermalError::invalid("channel dimensions must be positive"));
        }
        let area = width.value() * gap.value();
        let dh = 2.0 * width.value() * gap.value() / (width.value() + gap.value());
        let f = 0.05;
        let sum_k = 1.5;
        let k = (f * length.value() / dh + sum_k) / (2.0 * air.density.value() * area * area);
        Ok(Self { k })
    }

    /// A partially obstructed variant of this channel (cable bundle,
    /// misloaded card): the free-area fraction `open` scales the
    /// impedance as `1/open²`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < open ≤ 1`.
    pub fn obstructed(&self, open: f64) -> Result<Self, ThermalError> {
        if !(open > 0.0 && open <= 1.0) {
            return Err(ThermalError::invalid("open fraction must be in (0, 1]"));
        }
        Ok(Self {
            k: self.k / (open * open),
        })
    }

    /// Pressure drop at a mass flow.
    pub fn pressure_drop(&self, flow: MassFlowRate) -> Pressure {
        Pressure::new(self.k * flow.value() * flow.value())
    }

    /// Flow at a driving pressure.
    pub fn flow_at(&self, dp: Pressure) -> MassFlowRate {
        MassFlowRate::new((dp.value().max(0.0) / self.k).sqrt())
    }
}

/// The solved rack flow split.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSolution {
    /// Plenum pressure at the operating point.
    pub plenum_pressure: Pressure,
    /// Per-channel mass flows, in input order.
    pub channel_flows: Vec<MassFlowRate>,
    /// How the operating-point search went.
    pub stats: SolverStats,
}

impl FlowSolution {
    /// Total delivered flow.
    pub fn total_flow(&self) -> MassFlowRate {
        MassFlowRate::new(self.channel_flows.iter().map(|f| f.value()).sum())
    }

    /// The most starved channel `(index, flow)`.
    ///
    /// # Panics
    ///
    /// Never panics: construction guarantees at least one channel.
    pub fn starved_channel(&self) -> (usize, MassFlowRate) {
        self.channel_flows
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.value().partial_cmp(&b.1.value()).expect("finite flows"))
            .map(|(i, &f)| (i, f))
            .expect("at least one channel")
    }
}

/// Solves the operating point of a fan feeding parallel channels.
///
/// # Errors
///
/// Returns an error for an empty channel list.
pub fn solve_rack_flow(
    fan: &FanCurve,
    channels: &[ChannelImpedance],
) -> Result<FlowSolution, ThermalError> {
    if channels.is_empty() {
        return Err(ThermalError::invalid("rack needs at least one channel"));
    }
    // Bisection on the plenum pressure: total channel flow decreases the
    // fan's deliverable flow and increases channel demand monotonically.
    let start = Instant::now();
    let iterations = 80;
    let mut lo = 0.0;
    let mut hi = fan.stall_pressure.value();
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        let dp = Pressure::new(mid);
        let total: f64 = channels.iter().map(|c| c.flow_at(dp).value()).sum();
        let fan_dp = fan.pressure_at(MassFlowRate::new(total)).value();
        if fan_dp > mid {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let dp = Pressure::new(0.5 * (lo + hi));
    let bracket = (hi - lo) / fan.stall_pressure.value();
    Ok(FlowSolution {
        plenum_pressure: dp,
        channel_flows: channels.iter().map(|c| c.flow_at(dp)).collect(),
        stats: SolverStats {
            context: "rack flow distribution",
            method: Method::Bisection,
            preconditioner: Precond::None,
            requested_preconditioner: Precond::None,
            unknowns: channels.len(),
            threads: 1,
            iterations,
            residual_history: Vec::new(),
            final_residual: bracket,
            tolerance: bracket.max(f64::MIN_POSITIVE),
            wall_time: start.elapsed(),
            setup_seconds: 0.0,
            iterate_seconds: start.elapsed().as_secs_f64(),
            factorization: None,
            spectral: None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeropack_materials::air_at_sea_level;
    use aeropack_units::Celsius;

    fn fan() -> FanCurve {
        FanCurve::new(Pressure::new(120.0), MassFlowRate::from_kg_per_hour(120.0)).unwrap()
    }

    fn channel() -> ChannelImpedance {
        let air = air_at_sea_level(Celsius::new(40.0));
        ChannelImpedance::card_channel(
            &air,
            Length::new(0.1),
            Length::from_millimeters(3.0),
            Length::new(0.16),
        )
        .unwrap()
    }

    #[test]
    fn identical_channels_split_evenly() {
        let channels = vec![channel(); 6];
        let sol = solve_rack_flow(&fan(), &channels).unwrap();
        let flows: Vec<f64> = sol.channel_flows.iter().map(|f| f.value()).collect();
        let first = flows[0];
        assert!(first > 0.0);
        for f in &flows {
            assert!((f - first).abs() < 1e-12 * first);
        }
        // Operating point sits on the fan curve.
        let fan_dp = fan().pressure_at(sol.total_flow());
        assert!(
            (fan_dp.value() - sol.plenum_pressure.value()).abs() < 0.01 * fan_dp.value().max(1.0)
        );
    }

    #[test]
    fn obstruction_starves_one_card_and_boosts_the_rest() {
        let clean = vec![channel(); 6];
        let sol_clean = solve_rack_flow(&fan(), &clean).unwrap();
        let mut dirty = clean.clone();
        dirty[2] = dirty[2].obstructed(0.4).unwrap();
        let sol_dirty = solve_rack_flow(&fan(), &dirty).unwrap();
        let (idx, starved) = sol_dirty.starved_channel();
        assert_eq!(idx, 2);
        assert!(starved.value() < 0.5 * sol_clean.channel_flows[2].value());
        // Neighbours gain a little (less total demand → higher plenum).
        assert!(sol_dirty.channel_flows[0].value() > sol_clean.channel_flows[0].value());
        // Rack total barely moves — the starvation is invisible at the
        // equipment level, which is why the paper pushes for Level-2
        // analysis per board.
        let drop = 1.0 - sol_dirty.total_flow().value() / sol_clean.total_flow().value();
        assert!(drop < 0.12, "total flow dropped {:.0}%", drop * 100.0);
    }

    #[test]
    fn more_channels_more_total_flow_less_each() {
        let few = solve_rack_flow(&fan(), &[channel(); 3]).unwrap();
        let many = solve_rack_flow(&fan(), &[channel(); 12]).unwrap();
        assert!(many.total_flow().value() > few.total_flow().value());
        assert!(many.channel_flows[0].value() < few.channel_flows[0].value());
    }

    #[test]
    fn fan_curve_endpoints() {
        let f = fan();
        assert!((f.pressure_at(MassFlowRate::ZERO).value() - 120.0).abs() < 1e-12);
        assert_eq!(
            f.pressure_at(MassFlowRate::from_kg_per_hour(120.0)).value(),
            0.0
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(FanCurve::new(Pressure::ZERO, MassFlowRate::new(0.01)).is_err());
        assert!(ChannelImpedance::from_coefficient(0.0).is_err());
        assert!(channel().obstructed(0.0).is_err());
        assert!(channel().obstructed(1.5).is_err());
        assert!(solve_rack_flow(&fan(), &[]).is_err());
    }
}
