//! Line-delimited JSON wire codec for the analysis service.
//!
//! One request per line, one response per line, matched by `id`:
//!
//! ```text
//! {"id":1,"priority":"normal","deadline_ms":250,"request":
//!     {"type":"fv_steady","spec":{...},"scale":1.0}}
//! {"id":1,"ok":{"type":"field","min_c":40.1,...}}
//! {"id":2,"err":{"code":"queue_full","message":"..."}}
//! ```
//!
//! Tags (`type`, `priority`, error `code`, enum field tags) are the
//! stable strings exposed by the request/error types; numbers are
//! written in Rust's shortest round-trip form and parsed back with
//! full `f64` precision, so an encode/decode cycle is lossless.
//! Decoding reuses the strict JSON parser from `aeropack-obs`
//! ([`aeropack_obs::report::parse`]); any shape violation surfaces as
//! [`Error::Wire`] rather than a panic.

use std::time::Duration;

use aeropack_obs::report::{parse, JsonValue};

use crate::error::Error;
use crate::queue::Priority;
use crate::request::{
    AnalysisRequest, AnalysisResponse, BoardSpec, CoolingModeSpec, FemPlateSpec, MaterialKind,
    MissionSpec, OptimizeSpec, PlateSpec, SchemeKind, SeatKind, SebSpec, TransientSpec,
};

/// A request envelope as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Caller-chosen correlation id, echoed on the response line.
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Relative deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// The analysis to run.
    pub request: AnalysisRequest,
}

impl WireRequest {
    /// The deadline as a `Duration`, when set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }
}

/// A response envelope as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The correlation id of the request this answers.
    pub id: u64,
    /// The outcome.
    pub result: Result<AnalysisResponse, Error>,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    // Shortest round-trip form; the decoder's `str::parse::<f64>`
    // recovers the exact bits for every finite value.
    format!("{v}")
}

fn nums(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(","))
}

fn seb_spec_json(s: &SebSpec) -> String {
    format!(
        "{{\"seat\":\"{}\",\"lhp\":{},\"tilt_deg\":{},\"ambient_c\":{}}}",
        s.seat.tag(),
        s.lhp,
        num(s.tilt_deg),
        num(s.ambient_c)
    )
}

fn plate_spec_json(s: &PlateSpec) -> String {
    format!(
        "{{\"lx_m\":{},\"ly_m\":{},\"thickness_m\":{},\"nx\":{},\"ny\":{},\
         \"material\":\"{}\",\"power_w\":{},\"h_w_m2k\":{},\"ambient_c\":{}}}",
        num(s.lx_m),
        num(s.ly_m),
        num(s.thickness_m),
        s.nx,
        s.ny,
        s.material.tag(),
        num(s.power_w),
        num(s.h_w_m2k),
        num(s.ambient_c)
    )
}

fn board_spec_json(s: &BoardSpec) -> String {
    let mode_fields = match s.mode {
        CoolingModeSpec::FreeConvection => String::new(),
        CoolingModeSpec::ForcedAir { flow_multiplier }
        | CoolingModeSpec::AirFlowThrough { flow_multiplier } => {
            format!(",\"flow_multiplier\":{}", num(flow_multiplier))
        }
        CoolingModeSpec::ConductionCooled { rail_c } => {
            format!(",\"rail_c\":{}", num(rail_c))
        }
        CoolingModeSpec::LiquidFlowThrough { coolant_inlet_c } => {
            format!(",\"coolant_inlet_c\":{}", num(coolant_inlet_c))
        }
    };
    format!(
        "{{\"power_w\":{},\"mode\":\"{}\"{},\"ambient_c\":{},\"resolution_mm\":{}}}",
        num(s.power_w),
        s.mode.tag(),
        mode_fields,
        num(s.ambient_c),
        num(s.resolution_mm)
    )
}

fn fem_spec_json(s: &FemPlateSpec) -> String {
    format!(
        "{{\"lx_m\":{},\"ly_m\":{},\"nx\":{},\"ny\":{},\"thickness_mm\":{},\
         \"smeared_mass_kg_m2\":{},\"material\":\"{}\"}}",
        num(s.lx_m),
        num(s.ly_m),
        s.nx,
        s.ny,
        num(s.thickness_mm),
        num(s.smeared_mass_kg_m2),
        s.material.tag()
    )
}

fn mission_spec_json(m: &MissionSpec) -> String {
    match *m {
        MissionSpec::ClimbCruiseDescent {
            cruise_altitude_m,
            climb_s,
            cruise_s,
            descent_s,
        } => format!(
            "{{\"kind\":\"{}\",\"cruise_altitude_m\":{},\"climb_s\":{},\"cruise_s\":{},\
             \"descent_s\":{}}}",
            m.tag(),
            num(cruise_altitude_m),
            num(climb_s),
            num(cruise_s),
            num(descent_s)
        ),
        MissionSpec::OrbitCycle {
            cycles,
            emissivity,
            absorptivity,
        } => format!(
            "{{\"kind\":\"{}\",\"cycles\":{cycles},\"emissivity\":{},\"absorptivity\":{}}}",
            m.tag(),
            num(emissivity),
            num(absorptivity)
        ),
    }
}

fn transient_spec_json(s: &TransientSpec) -> String {
    let dt = match s.fixed_dt_s {
        Some(dt) => num(dt),
        None => "null".to_string(),
    };
    format!(
        "{{\"plate\":{},\"mission\":{},\"scheme\":\"{}\",\"fixed_dt_s\":{dt},\
         \"initial_c\":{}}}",
        plate_spec_json(&s.plate),
        mission_spec_json(&s.mission),
        s.scheme.tag(),
        num(s.initial_c)
    )
}

fn optimize_spec_json(s: &OptimizeSpec) -> String {
    // The seed is a full u64; JSON numbers lose integers past 2⁵³, so
    // it travels as hex (the `trajectory_hash` convention).
    format!(
        "{{\"seed\":\"{:016x}\",\"population\":{},\"generations\":{},\"tilt_deg\":{},\
         \"ambient_c\":{},\"base_power_w\":{}}}",
        s.seed,
        s.population,
        s.generations,
        num(s.tilt_deg),
        num(s.ambient_c),
        num(s.base_power_w)
    )
}

/// Encodes the body of a request (the `"request"` object).
pub fn encode_request(request: &AnalysisRequest) -> String {
    let tag = request.tag();
    match request {
        AnalysisRequest::SebCapability { spec, dt_limit_k } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"dt_limit_k\":{}}}",
            seb_spec_json(spec),
            num(*dt_limit_k)
        ),
        AnalysisRequest::SebOperatingPoint { spec, power_w } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"power_w\":{}}}",
            seb_spec_json(spec),
            num(*power_w)
        ),
        AnalysisRequest::SebPowerSweep { spec, powers_w } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"powers_w\":{}}}",
            seb_spec_json(spec),
            nums(powers_w)
        ),
        AnalysisRequest::FvSteady { spec, scale } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"scale\":{}}}",
            plate_spec_json(spec),
            num(*scale)
        ),
        AnalysisRequest::BoardSteady { spec, scale } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"scale\":{}}}",
            board_spec_json(spec),
            num(*scale)
        ),
        AnalysisRequest::FemStatic { spec, load_n } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"load_n\":{}}}",
            fem_spec_json(spec),
            num(*load_n)
        ),
        AnalysisRequest::Transient { spec } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{}}}",
            transient_spec_json(spec)
        ),
        AnalysisRequest::Optimize { spec } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{}}}",
            optimize_spec_json(spec)
        ),
        AnalysisRequest::FemModal { spec, n_modes } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"n_modes\":{n_modes}}}",
            fem_spec_json(spec)
        ),
        AnalysisRequest::FemHarmonic {
            spec,
            damping,
            f_min_hz,
            f_max_hz,
            points,
        } => format!(
            "{{\"type\":\"{tag}\",\"spec\":{},\"damping\":{},\"f_min_hz\":{},\
             \"f_max_hz\":{},\"points\":{points}}}",
            fem_spec_json(spec),
            num(*damping),
            num(*f_min_hz),
            num(*f_max_hz)
        ),
    }
}

/// Encodes the body of a response (the `"ok"` object).
pub fn encode_response(response: &AnalysisResponse) -> String {
    let tag = response.tag();
    match response {
        AnalysisResponse::Capability { watts } => {
            format!("{{\"type\":\"{tag}\",\"watts\":{}}}", num(*watts))
        }
        AnalysisResponse::OperatingPoint {
            power_w,
            pcb_c,
            wall_c,
            lhp_w,
            dt_pcb_air_k,
        } => format!(
            "{{\"type\":\"{tag}\",\"power_w\":{},\"pcb_c\":{},\"wall_c\":{},\
             \"lhp_w\":{},\"dt_pcb_air_k\":{}}}",
            num(*power_w),
            num(*pcb_c),
            num(*wall_c),
            num(*lhp_w),
            num(*dt_pcb_air_k)
        ),
        AnalysisResponse::PowerSweep { dt_pcb_air_k } => {
            let items: Vec<String> = dt_pcb_air_k
                .iter()
                .map(|p| match p {
                    Some(v) => num(*v),
                    None => "null".to_string(),
                })
                .collect();
            format!(
                "{{\"type\":\"{tag}\",\"dt_pcb_air_k\":[{}]}}",
                items.join(",")
            )
        }
        AnalysisResponse::Field {
            min_c,
            max_c,
            mean_c,
            cells,
        } => format!(
            "{{\"type\":\"{tag}\",\"min_c\":{},\"max_c\":{},\"mean_c\":{},\"cells\":{cells}}}",
            num(*min_c),
            num(*max_c),
            num(*mean_c)
        ),
        AnalysisResponse::Transient {
            final_min_c,
            final_max_c,
            final_mean_c,
            steps,
            rejected,
            factor_reuses,
            trajectory_hash,
        } => format!(
            "{{\"type\":\"{tag}\",\"final_min_c\":{},\"final_max_c\":{},\
             \"final_mean_c\":{},\"steps\":{steps},\"rejected\":{rejected},\
             \"factor_reuses\":{factor_reuses},\"trajectory_hash\":\"{trajectory_hash:016x}\"}}",
            num(*final_min_c),
            num(*final_max_c),
            num(*final_mean_c)
        ),
        AnalysisResponse::Static { max_deflection_m } => format!(
            "{{\"type\":\"{tag}\",\"max_deflection_m\":{}}}",
            num(*max_deflection_m)
        ),
        AnalysisResponse::Modal { frequencies_hz } => format!(
            "{{\"type\":\"{tag}\",\"frequencies_hz\":{}}}",
            nums(frequencies_hz)
        ),
        AnalysisResponse::Pareto {
            topologies,
            dt_k,
            mass_kg,
            mtbf_h,
            front_hash,
            evaluations,
        } => {
            let tags: Vec<String> = topologies
                .iter()
                .map(|t| format!("\"{}\"", esc(t)))
                .collect();
            format!(
                "{{\"type\":\"{tag}\",\"topologies\":[{}],\"dt_k\":{},\"mass_kg\":{},\
                 \"mtbf_h\":{},\"front_hash\":\"{front_hash:016x}\",\"evaluations\":{evaluations}}}",
                tags.join(","),
                nums(dt_k),
                nums(mass_kg),
                nums(mtbf_h)
            )
        }
        AnalysisResponse::Harmonic {
            peak_hz,
            peak_transmissibility,
            points,
        } => format!(
            "{{\"type\":\"{tag}\",\"peak_hz\":{},\"peak_transmissibility\":{},\
             \"points\":{points}}}",
            num(*peak_hz),
            num(*peak_transmissibility)
        ),
    }
}

/// Encodes a full request line (without the trailing newline).
pub fn encode_request_line(req: &WireRequest) -> String {
    let deadline = match req.deadline_ms {
        Some(ms) => format!(",\"deadline_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"id\":{},\"priority\":\"{}\"{},\"request\":{}}}",
        req.id,
        req.priority.tag(),
        deadline,
        encode_request(&req.request)
    )
}

/// Encodes a full response line (without the trailing newline).
pub fn encode_response_line(resp: &WireResponse) -> String {
    match &resp.result {
        Ok(response) => format!(
            "{{\"id\":{},\"ok\":{}}}",
            resp.id,
            encode_response(response)
        ),
        Err(e) => format!(
            "{{\"id\":{},\"err\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
            resp.id,
            esc(e.code()),
            esc(&e.to_string())
        ),
    }
}

fn wire_err(what: impl Into<String>) -> Error {
    Error::Wire {
        reason: what.into(),
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, Error> {
    v.get(key)
        .ok_or_else(|| wire_err(format!("missing field `{key}`")))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, Error> {
    field(v, key)?
        .as_number()
        .ok_or_else(|| wire_err(format!("field `{key}` is not a number")))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, Error> {
    let n = f64_field(v, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(wire_err(format!(
            "field `{key}` is not a non-negative integer"
        )));
    }
    Ok(n as usize)
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, Error> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| wire_err(format!("field `{key}` is not a string")))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, Error> {
    match field(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(wire_err(format!("field `{key}` is not a boolean"))),
    }
}

fn array_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], Error> {
    match field(v, key)? {
        JsonValue::Array(items) => Ok(items),
        _ => Err(wire_err(format!("field `{key}` is not an array"))),
    }
}

fn f64s_field(v: &JsonValue, key: &str) -> Result<Vec<f64>, Error> {
    array_field(v, key)?
        .iter()
        .map(|item| {
            item.as_number()
                .ok_or_else(|| wire_err(format!("field `{key}` has a non-number element")))
        })
        .collect()
}

fn decode_seb_spec(v: &JsonValue) -> Result<SebSpec, Error> {
    Ok(SebSpec {
        seat: SeatKind::from_tag(str_field(v, "seat")?)
            .ok_or_else(|| wire_err("unknown seat tag"))?,
        lhp: bool_field(v, "lhp")?,
        tilt_deg: f64_field(v, "tilt_deg")?,
        ambient_c: f64_field(v, "ambient_c")?,
    })
}

fn decode_plate_spec(v: &JsonValue) -> Result<PlateSpec, Error> {
    Ok(PlateSpec {
        lx_m: f64_field(v, "lx_m")?,
        ly_m: f64_field(v, "ly_m")?,
        thickness_m: f64_field(v, "thickness_m")?,
        nx: usize_field(v, "nx")?,
        ny: usize_field(v, "ny")?,
        material: MaterialKind::from_tag(str_field(v, "material")?)
            .ok_or_else(|| wire_err("unknown material tag"))?,
        power_w: f64_field(v, "power_w")?,
        h_w_m2k: f64_field(v, "h_w_m2k")?,
        ambient_c: f64_field(v, "ambient_c")?,
    })
}

fn decode_board_spec(v: &JsonValue) -> Result<BoardSpec, Error> {
    let mode = match str_field(v, "mode")? {
        "free_convection" => CoolingModeSpec::FreeConvection,
        "forced_air" => CoolingModeSpec::ForcedAir {
            flow_multiplier: f64_field(v, "flow_multiplier")?,
        },
        "conduction_cooled" => CoolingModeSpec::ConductionCooled {
            rail_c: f64_field(v, "rail_c")?,
        },
        "air_flow_through" => CoolingModeSpec::AirFlowThrough {
            flow_multiplier: f64_field(v, "flow_multiplier")?,
        },
        "liquid_flow_through" => CoolingModeSpec::LiquidFlowThrough {
            coolant_inlet_c: f64_field(v, "coolant_inlet_c")?,
        },
        other => return Err(wire_err(format!("unknown cooling mode `{other}`"))),
    };
    Ok(BoardSpec {
        power_w: f64_field(v, "power_w")?,
        mode,
        ambient_c: f64_field(v, "ambient_c")?,
        resolution_mm: f64_field(v, "resolution_mm")?,
    })
}

fn decode_fem_spec(v: &JsonValue) -> Result<FemPlateSpec, Error> {
    Ok(FemPlateSpec {
        lx_m: f64_field(v, "lx_m")?,
        ly_m: f64_field(v, "ly_m")?,
        nx: usize_field(v, "nx")?,
        ny: usize_field(v, "ny")?,
        thickness_mm: f64_field(v, "thickness_mm")?,
        smeared_mass_kg_m2: f64_field(v, "smeared_mass_kg_m2")?,
        material: MaterialKind::from_tag(str_field(v, "material")?)
            .ok_or_else(|| wire_err("unknown material tag"))?,
    })
}

fn decode_mission_spec(v: &JsonValue) -> Result<MissionSpec, Error> {
    match str_field(v, "kind")? {
        "climb_cruise_descent" => Ok(MissionSpec::ClimbCruiseDescent {
            cruise_altitude_m: f64_field(v, "cruise_altitude_m")?,
            climb_s: f64_field(v, "climb_s")?,
            cruise_s: f64_field(v, "cruise_s")?,
            descent_s: f64_field(v, "descent_s")?,
        }),
        "orbit_cycle" => Ok(MissionSpec::OrbitCycle {
            cycles: usize_field(v, "cycles")?,
            emissivity: f64_field(v, "emissivity")?,
            absorptivity: f64_field(v, "absorptivity")?,
        }),
        other => Err(wire_err(format!("unknown mission kind `{other}`"))),
    }
}

fn decode_transient_spec(v: &JsonValue) -> Result<TransientSpec, Error> {
    let fixed_dt_s = match v.get("fixed_dt_s") {
        None | Some(JsonValue::Null) => None,
        Some(_) => Some(f64_field(v, "fixed_dt_s")?),
    };
    Ok(TransientSpec {
        plate: decode_plate_spec(field(v, "plate")?)?,
        mission: decode_mission_spec(field(v, "mission")?)?,
        scheme: SchemeKind::from_tag(str_field(v, "scheme")?)
            .ok_or_else(|| wire_err("unknown scheme tag"))?,
        fixed_dt_s,
        initial_c: f64_field(v, "initial_c")?,
    })
}

fn u64_hex_field(v: &JsonValue, key: &str) -> Result<u64, Error> {
    let hex = str_field(v, key)?;
    u64::from_str_radix(hex, 16).map_err(|_| wire_err(format!("bad {key} hex")))
}

fn decode_optimize_spec(v: &JsonValue) -> Result<OptimizeSpec, Error> {
    Ok(OptimizeSpec {
        seed: u64_hex_field(v, "seed")?,
        population: usize_field(v, "population")?,
        generations: usize_field(v, "generations")?,
        tilt_deg: f64_field(v, "tilt_deg")?,
        ambient_c: f64_field(v, "ambient_c")?,
        base_power_w: f64_field(v, "base_power_w")?,
    })
}

/// Decodes a request body (the `"request"` object).
pub fn decode_request(v: &JsonValue) -> Result<AnalysisRequest, Error> {
    let spec = field(v, "spec")?;
    match str_field(v, "type")? {
        "seb_capability" => Ok(AnalysisRequest::SebCapability {
            spec: decode_seb_spec(spec)?,
            dt_limit_k: f64_field(v, "dt_limit_k")?,
        }),
        "seb_operating_point" => Ok(AnalysisRequest::SebOperatingPoint {
            spec: decode_seb_spec(spec)?,
            power_w: f64_field(v, "power_w")?,
        }),
        "seb_power_sweep" => Ok(AnalysisRequest::SebPowerSweep {
            spec: decode_seb_spec(spec)?,
            powers_w: f64s_field(v, "powers_w")?,
        }),
        "fv_steady" => Ok(AnalysisRequest::FvSteady {
            spec: decode_plate_spec(spec)?,
            scale: f64_field(v, "scale")?,
        }),
        "board_steady" => Ok(AnalysisRequest::BoardSteady {
            spec: decode_board_spec(spec)?,
            scale: f64_field(v, "scale")?,
        }),
        "transient" => Ok(AnalysisRequest::Transient {
            spec: decode_transient_spec(spec)?,
        }),
        "optimize" => Ok(AnalysisRequest::Optimize {
            spec: decode_optimize_spec(spec)?,
        }),
        "fem_static" => Ok(AnalysisRequest::FemStatic {
            spec: decode_fem_spec(spec)?,
            load_n: f64_field(v, "load_n")?,
        }),
        "fem_modal" => Ok(AnalysisRequest::FemModal {
            spec: decode_fem_spec(spec)?,
            n_modes: usize_field(v, "n_modes")?,
        }),
        "fem_harmonic" => Ok(AnalysisRequest::FemHarmonic {
            spec: decode_fem_spec(spec)?,
            damping: f64_field(v, "damping")?,
            f_min_hz: f64_field(v, "f_min_hz")?,
            f_max_hz: f64_field(v, "f_max_hz")?,
            points: usize_field(v, "points")?,
        }),
        other => Err(wire_err(format!("unknown request type `{other}`"))),
    }
}

/// Decodes a response body (the `"ok"` object).
pub fn decode_response(v: &JsonValue) -> Result<AnalysisResponse, Error> {
    match str_field(v, "type")? {
        "capability" => Ok(AnalysisResponse::Capability {
            watts: f64_field(v, "watts")?,
        }),
        "operating_point" => Ok(AnalysisResponse::OperatingPoint {
            power_w: f64_field(v, "power_w")?,
            pcb_c: f64_field(v, "pcb_c")?,
            wall_c: f64_field(v, "wall_c")?,
            lhp_w: f64_field(v, "lhp_w")?,
            dt_pcb_air_k: f64_field(v, "dt_pcb_air_k")?,
        }),
        "power_sweep" => {
            let points = array_field(v, "dt_pcb_air_k")?
                .iter()
                .map(|item| match item {
                    JsonValue::Null => Ok(None),
                    JsonValue::Number(n) => Ok(Some(*n)),
                    _ => Err(wire_err("power sweep element is neither number nor null")),
                })
                .collect::<Result<Vec<Option<f64>>, Error>>()?;
            Ok(AnalysisResponse::PowerSweep {
                dt_pcb_air_k: points,
            })
        }
        "field" => Ok(AnalysisResponse::Field {
            min_c: f64_field(v, "min_c")?,
            max_c: f64_field(v, "max_c")?,
            mean_c: f64_field(v, "mean_c")?,
            cells: usize_field(v, "cells")?,
        }),
        "transient" => {
            let hash_hex = str_field(v, "trajectory_hash")?;
            let trajectory_hash = u64::from_str_radix(hash_hex, 16)
                .map_err(|_| wire_err("bad trajectory_hash hex"))?;
            Ok(AnalysisResponse::Transient {
                final_min_c: f64_field(v, "final_min_c")?,
                final_max_c: f64_field(v, "final_max_c")?,
                final_mean_c: f64_field(v, "final_mean_c")?,
                steps: usize_field(v, "steps")?,
                rejected: usize_field(v, "rejected")?,
                factor_reuses: usize_field(v, "factor_reuses")?,
                trajectory_hash,
            })
        }
        "static" => Ok(AnalysisResponse::Static {
            max_deflection_m: f64_field(v, "max_deflection_m")?,
        }),
        "modal" => Ok(AnalysisResponse::Modal {
            frequencies_hz: f64s_field(v, "frequencies_hz")?,
        }),
        "pareto" => {
            let topologies = array_field(v, "topologies")?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| wire_err("field `topologies` has a non-string element"))
                })
                .collect::<Result<Vec<String>, Error>>()?;
            Ok(AnalysisResponse::Pareto {
                topologies,
                dt_k: f64s_field(v, "dt_k")?,
                mass_kg: f64s_field(v, "mass_kg")?,
                mtbf_h: f64s_field(v, "mtbf_h")?,
                front_hash: u64_hex_field(v, "front_hash")?,
                evaluations: usize_field(v, "evaluations")? as u64,
            })
        }
        "harmonic" => Ok(AnalysisResponse::Harmonic {
            peak_hz: f64_field(v, "peak_hz")?,
            peak_transmissibility: f64_field(v, "peak_transmissibility")?,
            points: usize_field(v, "points")?,
        }),
        other => Err(wire_err(format!("unknown response type `{other}`"))),
    }
}

/// Decodes a full request line.
pub fn decode_request_line(line: &str) -> Result<WireRequest, Error> {
    let v = parse(line).map_err(|e| wire_err(e.to_string()))?;
    let id = usize_field(&v, "id")? as u64;
    let priority = match v.get("priority") {
        None => Priority::Normal,
        Some(p) => {
            let tag = p
                .as_str()
                .ok_or_else(|| wire_err("field `priority` is not a string"))?;
            Priority::from_tag(tag).ok_or_else(|| wire_err(format!("unknown priority `{tag}`")))?
        }
    };
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(JsonValue::Null) => None,
        Some(_) => Some(usize_field(&v, "deadline_ms")? as u64),
    };
    Ok(WireRequest {
        id,
        priority,
        deadline_ms,
        request: decode_request(field(&v, "request")?)?,
    })
}

/// Decodes a full response line.
pub fn decode_response_line(line: &str) -> Result<WireResponse, Error> {
    let v = parse(line).map_err(|e| wire_err(e.to_string()))?;
    let id = usize_field(&v, "id")? as u64;
    let result = if let Some(ok) = v.get("ok") {
        Ok(decode_response(ok)?)
    } else if let Some(err) = v.get("err") {
        Err(Error::from_wire(
            str_field(err, "code")?,
            str_field(err, "message")?,
        ))
    } else {
        return Err(wire_err("response line has neither `ok` nor `err`"));
    };
    Ok(WireResponse { id, result })
}
