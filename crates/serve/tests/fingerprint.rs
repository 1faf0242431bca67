//! Cache-key hygiene: fingerprints are canonical — invariant under
//! construction order, sensitive to every physical parameter, and
//! NaN-free by construction.

use aeropack_core::{representative_board, CoolingMode, Level2Model};
use aeropack_materials::Material;
use aeropack_serve::{
    AnalysisRequest, BoardSpec, CoolingModeSpec, MaterialKind, PlateSpec, Workload,
};
use aeropack_solver::{Precond, SolverConfig};
use aeropack_thermal::{FvGrid, FvModel};
use aeropack_units::{Celsius, Length, Power};

fn board_model() -> Level2Model {
    let pcb = representative_board("hygiene board", Power::new(30.0)).expect("board");
    Level2Model::new(
        &pcb,
        &CoolingMode::DirectForcedAir {
            flow_multiplier: 1.0,
        },
        Celsius::new(40.0),
        Length::from_millimeters(5.0),
    )
    .expect("level2 model")
}

#[test]
fn two_builds_of_the_same_level2_model_hash_identically() {
    assert_eq!(board_model().fingerprint(), board_model().fingerprint());
}

#[test]
fn level2_fingerprint_tracks_the_cooling_mode() {
    let pcb = representative_board("hygiene board", Power::new(30.0)).expect("board");
    let forced = Level2Model::new(
        &pcb,
        &CoolingMode::DirectForcedAir {
            flow_multiplier: 1.0,
        },
        Celsius::new(40.0),
        Length::from_millimeters(5.0),
    )
    .expect("forced-air model");
    let conduction = Level2Model::new(
        &pcb,
        &CoolingMode::ConductionCooled {
            rail_temperature: Celsius::new(40.0),
        },
        Celsius::new(40.0),
        Length::from_millimeters(5.0),
    )
    .expect("conduction model");
    assert_ne!(forced.fingerprint(), conduction.fingerprint());
}

#[test]
fn fv_fingerprint_is_invariant_under_power_box_order() {
    let make = |swap: bool| {
        let grid = FvGrid::new((0.1, 0.1, 0.002), (10, 10, 1)).expect("grid");
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        let boxes = [
            (Power::new(5.0), (1, 1, 0), (4, 4, 1)),
            (Power::new(7.0), (6, 6, 0), (9, 9, 1)),
        ];
        let order: Vec<usize> = if swap { vec![1, 0] } else { vec![0, 1] };
        for i in order {
            let (p, lo, hi) = boxes[i];
            model.add_power_box(p, lo, hi).expect("power box");
        }
        model.fingerprint()
    };
    assert_eq!(make(false), make(true));
}

#[test]
fn fv_fingerprint_tracks_the_source_field() {
    let base = |power_w: f64| {
        let grid = FvGrid::new((0.1, 0.1, 0.002), (10, 10, 1)).expect("grid");
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model
            .add_power_box(Power::new(power_w), (1, 1, 0), (4, 4, 1))
            .expect("power box");
        model.fingerprint()
    };
    assert_ne!(base(5.0), base(5.5));
}

#[test]
fn fv_fingerprint_tracks_the_full_chebyshev_degree() {
    // Degrees 256 apart must not share a result-cache entry: they run
    // different polynomials.
    let with_degree = |k: usize| {
        let grid = FvGrid::new((0.1, 0.1, 0.002), (10, 10, 1)).expect("grid");
        let mut model = FvModel::new(grid, &Material::aluminum_6061());
        model.set_solver_config(SolverConfig::new().preconditioner(Precond::Chebyshev(k)));
        model.fingerprint()
    };
    assert_ne!(with_degree(4), with_degree(260));
    assert_eq!(with_degree(4), with_degree(4));
}

#[test]
fn equal_requests_share_a_cache_key_and_parameters_split_it() {
    let spec = PlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        thickness_m: 0.0016,
        nx: 16,
        ny: 10,
        material: MaterialKind::Fr4,
        power_w: 12.0,
        h_w_m2k: 30.0,
        ambient_c: 55.0,
    };
    let a = AnalysisRequest::FvSteady { spec, scale: 1.0 };
    let b = AnalysisRequest::FvSteady { spec, scale: 1.0 };
    assert_eq!(Workload::fingerprint(&a), Workload::fingerprint(&b));
    let c = AnalysisRequest::FvSteady {
        spec,
        scale: 1.0 + 1e-15,
    };
    assert_ne!(Workload::fingerprint(&a), Workload::fingerprint(&c));
}

#[test]
fn coalesce_key_ignores_scale_but_not_the_model() {
    let spec = BoardSpec {
        power_w: 25.0,
        mode: CoolingModeSpec::ForcedAir {
            flow_multiplier: 1.0,
        },
        ambient_c: 40.0,
        resolution_mm: 5.0,
    };
    let a = AnalysisRequest::BoardSteady { spec, scale: 0.5 };
    let b = AnalysisRequest::BoardSteady { spec, scale: 1.5 };
    assert_eq!(a.coalesce_key(), b.coalesce_key());
    // Same scales, different model: keys must split.
    let hotter = BoardSpec {
        ambient_c: 55.0,
        ..spec
    };
    let c = AnalysisRequest::BoardSteady {
        spec: hotter,
        scale: 0.5,
    };
    assert_ne!(a.coalesce_key(), c.coalesce_key());
    // And the cache key still separates the scales the coalesce key
    // deliberately ignores.
    assert_ne!(Workload::fingerprint(&a), Workload::fingerprint(&b));
}

#[test]
#[should_panic(expected = "fingerprint input is NaN")]
fn nan_parameters_are_rejected_not_hashed() {
    let spec = PlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        thickness_m: 0.0016,
        nx: 16,
        ny: 10,
        material: MaterialKind::Aluminum,
        power_w: 12.0,
        h_w_m2k: 30.0,
        ambient_c: 55.0,
    };
    let bad = AnalysisRequest::FvSteady {
        spec,
        scale: f64::NAN,
    };
    let _ = Workload::fingerprint(&bad);
}

#[test]
fn negative_zero_scale_hashes_like_positive_zero() {
    let spec = PlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        thickness_m: 0.0016,
        nx: 16,
        ny: 10,
        material: MaterialKind::Aluminum,
        power_w: 12.0,
        h_w_m2k: 30.0,
        ambient_c: 55.0,
    };
    let pos = AnalysisRequest::FvSteady { spec, scale: 0.0 };
    let neg = AnalysisRequest::FvSteady { spec, scale: -0.0 };
    assert_eq!(Workload::fingerprint(&pos), Workload::fingerprint(&neg));
}
