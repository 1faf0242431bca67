//! Wire codec round-trips and socket end-to-end exchanges.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use aeropack_serve::wire::{
    decode_request_line, decode_response_line, encode_request_line, encode_response,
    encode_response_line, WireRequest, WireResponse,
};
use aeropack_serve::{
    serve, AnalysisRequest, AnalysisResponse, BoardSpec, CoolingModeSpec, Error, FemPlateSpec,
    MaterialKind, MissionSpec, OptimizeSpec, PlateSpec, Priority, SchemeKind, SeatKind, SebSpec,
    ServeConfig, Service, SocketClient, TransientSpec, Workload, Workspace,
};

fn seb_spec() -> SebSpec {
    SebSpec {
        seat: SeatKind::CarbonComposite,
        lhp: false,
        tilt_deg: 12.5,
        ambient_c: 30.25,
    }
}

fn plate_spec() -> PlateSpec {
    PlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        thickness_m: 0.0016,
        nx: 16,
        ny: 10,
        material: MaterialKind::Fr4,
        power_w: 12.5,
        h_w_m2k: 37.5,
        ambient_c: 55.0,
    }
}

fn fem_spec() -> FemPlateSpec {
    FemPlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        nx: 8,
        ny: 6,
        thickness_mm: 1.6,
        smeared_mass_kg_m2: 4.5,
        material: MaterialKind::Fr4,
    }
}

fn all_requests() -> Vec<AnalysisRequest> {
    vec![
        AnalysisRequest::SebCapability {
            spec: seb_spec(),
            dt_limit_k: 25.0,
        },
        AnalysisRequest::SebOperatingPoint {
            spec: seb_spec(),
            power_w: 41.5,
        },
        AnalysisRequest::SebPowerSweep {
            spec: seb_spec(),
            powers_w: vec![10.0, 20.0, 30.0, 123.456789012345],
        },
        AnalysisRequest::FvSteady {
            spec: plate_spec(),
            scale: 1.0 + 1e-15,
        },
        AnalysisRequest::BoardSteady {
            spec: BoardSpec {
                power_w: 25.0,
                mode: CoolingModeSpec::ConductionCooled { rail_c: 45.0 },
                ambient_c: 40.0,
                resolution_mm: 5.0,
            },
            scale: 0.75,
        },
        AnalysisRequest::BoardSteady {
            spec: BoardSpec {
                power_w: 25.0,
                mode: CoolingModeSpec::LiquidFlowThrough {
                    coolant_inlet_c: 18.0,
                },
                ambient_c: 40.0,
                resolution_mm: 5.0,
            },
            scale: 1.0,
        },
        AnalysisRequest::FemStatic {
            spec: fem_spec(),
            load_n: -9.81,
        },
        AnalysisRequest::Transient {
            spec: TransientSpec {
                plate: plate_spec(),
                mission: MissionSpec::ClimbCruiseDescent {
                    cruise_altitude_m: 10_500.0,
                    climb_s: 900.0,
                    cruise_s: 5_400.0,
                    descent_s: 1_200.0,
                },
                scheme: SchemeKind::Trapezoidal,
                fixed_dt_s: None,
                initial_c: 15.0,
            },
        },
        AnalysisRequest::Transient {
            spec: TransientSpec {
                plate: plate_spec(),
                mission: MissionSpec::OrbitCycle {
                    cycles: 3,
                    emissivity: 0.85,
                    absorptivity: 0.3125,
                },
                scheme: SchemeKind::BackwardEuler,
                fixed_dt_s: Some(2.5),
                initial_c: 20.0,
            },
        },
        AnalysisRequest::FemModal {
            spec: fem_spec(),
            n_modes: 6,
        },
        AnalysisRequest::FemHarmonic {
            spec: fem_spec(),
            damping: 0.02,
            f_min_hz: 10.0,
            f_max_hz: 2000.0,
            points: 120,
        },
        AnalysisRequest::Optimize {
            spec: OptimizeSpec {
                // Past 2^53 so a float round-trip would corrupt it:
                // proves the hex-string encoding of u64 seeds.
                seed: 0xdead_beef_1234_5678,
                population: 32,
                generations: 8,
                tilt_deg: 30.0,
                ambient_c: 25.0,
                base_power_w: 120.0,
            },
        },
    ]
}

fn all_responses() -> Vec<AnalysisResponse> {
    vec![
        AnalysisResponse::Capability { watts: 55.25 },
        AnalysisResponse::OperatingPoint {
            power_w: 40.0,
            pcb_c: 68.125,
            wall_c: 51.0625,
            lhp_w: 22.5,
            dt_pcb_air_k: 28.125,
        },
        AnalysisResponse::PowerSweep {
            dt_pcb_air_k: vec![Some(10.5), Some(21.25), None, None],
        },
        AnalysisResponse::Field {
            min_c: 40.0,
            max_c: 71.125,
            mean_c: 55.0625,
            cells: 160,
        },
        AnalysisResponse::Transient {
            final_min_c: -12.5,
            final_max_c: 61.0625,
            final_mean_c: 23.75,
            steps: 10_432,
            rejected: 17,
            factor_reuses: 10_200,
            trajectory_hash: 0xdead_beef_0123_4567,
        },
        AnalysisResponse::Static {
            max_deflection_m: 1.25e-4,
        },
        AnalysisResponse::Modal {
            frequencies_hz: vec![112.5, 280.0, 443.75],
        },
        AnalysisResponse::Harmonic {
            peak_hz: 112.5,
            peak_transmissibility: 24.75,
            points: 120,
        },
        AnalysisResponse::Pareto {
            topologies: vec![
                "conduction".to_string(),
                "loop_heat_pipe".to_string(),
                "pumped_co2".to_string(),
            ],
            dt_k: vec![41.25, 18.0625, 9.5],
            mass_kg: vec![0.875, 1.3125, 2.25],
            mtbf_h: vec![62_500.0, 88_000.0, 71_250.0],
            front_hash: 0xfeed_face_8765_4321,
            evaluations: 1_000_448,
        },
    ]
}

#[test]
fn request_lines_round_trip_every_variant() {
    for (i, request) in all_requests().into_iter().enumerate() {
        let original = WireRequest {
            id: i as u64 + 1,
            priority: Priority::High,
            deadline_ms: Some(250),
            request,
        };
        let line = encode_request_line(&original);
        let decoded = decode_request_line(&line).expect("round trip");
        assert_eq!(decoded, original, "line: {line}");
    }
}

#[test]
fn request_line_defaults_priority_and_deadline() {
    let original = WireRequest {
        id: 7,
        priority: Priority::Normal,
        deadline_ms: None,
        request: AnalysisRequest::SebCapability {
            spec: seb_spec(),
            dt_limit_k: 25.0,
        },
    };
    let line = encode_request_line(&original);
    assert!(!line.contains("deadline_ms"));
    assert_eq!(decode_request_line(&line).expect("round trip"), original);
}

#[test]
fn response_lines_round_trip_every_variant() {
    for (i, response) in all_responses().into_iter().enumerate() {
        let original = WireResponse {
            id: i as u64 + 1,
            result: Ok(response),
        };
        let line = encode_response_line(&original);
        let decoded = decode_response_line(&line).expect("round trip");
        assert_eq!(decoded, original, "line: {line}");
    }
}

#[test]
fn error_responses_keep_their_stable_codes() {
    let errors = vec![
        Error::DeadlineExpired,
        Error::ShuttingDown,
        Error::QueueFull { capacity: 256 },
        Error::DryOut {
            detail: "loop heat pipe at 97 W".to_string(),
        },
        Error::Invalid {
            reason: "a \"quoted\" reason with a \\ backslash".to_string(),
        },
    ];
    for e in errors {
        let line = encode_response_line(&WireResponse {
            id: 3,
            result: Err(e.clone()),
        });
        let decoded = decode_response_line(&line).expect("round trip");
        match decoded.result {
            // Parameterless service errors round-trip exactly...
            Err(Error::DeadlineExpired) => assert_eq!(e, Error::DeadlineExpired),
            Err(Error::ShuttingDown) => assert_eq!(e, Error::ShuttingDown),
            // ...everything else keeps its code and message remotely.
            Err(Error::Remote { code, message }) => {
                assert_eq!(code, e.code());
                assert_eq!(message, e.to_string());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }
}

#[test]
fn malformed_lines_surface_as_wire_errors() {
    let cases = [
        "not json at all",
        "{\"id\":1}",
        "{\"id\":1,\"request\":{\"type\":\"no_such_analysis\",\"spec\":{}}}",
        "{\"id\":1,\"priority\":\"urgent\",\"request\":{}}",
        "{\"id\":-3,\"ok\":{\"type\":\"capability\",\"watts\":1}}",
    ];
    for line in cases {
        assert!(
            matches!(decode_request_line(line), Err(Error::Wire { .. })),
            "expected wire error for {line}"
        );
    }
    assert!(matches!(
        decode_response_line("{\"id\":1}"),
        Err(Error::Wire { .. })
    ));
}

/// The daemon's per-line read cap, in bytes (newline excluded).
const MAX_LINE_BYTES: usize = 1 << 20;

/// The request the raw-socket tests send and compare across
/// connections.
fn probe_request() -> AnalysisRequest {
    AnalysisRequest::FvSteady {
        spec: plate_spec(),
        scale: 1.0,
    }
}

fn probe_line(id: u64) -> String {
    let mut line = encode_request_line(&WireRequest {
        id,
        priority: Priority::Normal,
        deadline_ms: None,
        request: probe_request(),
    });
    line.push('\n');
    line
}

/// A raw connection: the tests below write bytes no [`SocketClient`]
/// would produce.
fn raw_connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Reads one response line; `None` when the daemon closed the
/// connection (a reset counts as closed: the daemon may drop unread
/// input).
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<WireResponse> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(decode_response_line(line.trim_end()).expect("response line")),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
        Err(e) => panic!("reading a response failed: {e}"),
    }
}

fn wire_error(response: WireResponse) -> String {
    assert_eq!(response.id, 0, "a malformed line has no id to echo");
    match response.result {
        Err(Error::Remote { code, message }) => {
            assert_eq!(code, "wire", "message: {message}");
            message
        }
        other => panic!("expected a wire error, got {other:?}"),
    }
}

/// Asserts that a fresh connection to the daemon answers the probe
/// with exactly the bits it answered before the bad input.
fn assert_fresh_connection_answers(addr: std::net::SocketAddr, reference: &AnalysisResponse) {
    let mut client = SocketClient::connect(addr).expect("connect");
    let answer = client.call(probe_request()).expect("probe call");
    assert_eq!(encode_response(&answer), encode_response(reference));
}

#[test]
fn invalid_utf8_line_is_a_wire_error_and_the_connection_goes_on() {
    let service = Arc::new(Service::start(ServeConfig::new().workers(1)));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let reference = SocketClient::connect(daemon.addr())
        .expect("connect")
        .call(probe_request())
        .expect("reference call");

    let (mut stream, mut reader) = raw_connect(daemon.addr());
    let mut bytes = b"{\"id\":1,\"request\":\"\xff\xfe\"}\n".to_vec();
    bytes.extend_from_slice(probe_line(2).as_bytes());
    stream.write_all(&bytes).expect("write");
    let first = read_response(&mut reader).expect("a response to the invalid line");
    let message = wire_error(first);
    assert!(message.contains("UTF-8"), "message: {message}");
    let second = read_response(&mut reader).expect("the connection stays open");
    assert_eq!(second.id, 2);
    assert_eq!(
        encode_response(&second.result.expect("probe answer")),
        encode_response(&reference)
    );
    drop(stream);

    assert_fresh_connection_answers(daemon.addr(), &reference);
    daemon.shutdown();
    service.shutdown();
}

#[test]
fn over_long_line_is_a_wire_error_and_closes_the_connection() {
    let service = Arc::new(Service::start(ServeConfig::new().workers(1)));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let reference = SocketClient::connect(daemon.addr())
        .expect("connect")
        .call(probe_request())
        .expect("reference call");

    let (mut stream, mut reader) = raw_connect(daemon.addr());
    let mut bytes = vec![b'x'; MAX_LINE_BYTES + 1];
    bytes.push(b'\n');
    bytes.extend_from_slice(probe_line(2).as_bytes());
    // The daemon stops reading at the cap, so the tail of this write
    // may meet a closed socket; the response is read either way.
    let _ = stream.write_all(&bytes);
    let first = read_response(&mut reader).expect("a response to the over-long line");
    let message = wire_error(first);
    assert!(
        message.contains(&format!("exceeds {MAX_LINE_BYTES} bytes")),
        "message: {message}"
    );
    assert!(
        read_response(&mut reader).is_none(),
        "the daemon must close the connection after an over-long line"
    );

    // A line exactly at the cap is still read as a request line.
    let (mut stream, mut reader) = raw_connect(daemon.addr());
    let mut at_cap = vec![b' '; MAX_LINE_BYTES];
    let probe = probe_line(3);
    at_cap[..probe.len() - 1].copy_from_slice(&probe.as_bytes()[..probe.len() - 1]);
    at_cap.push(b'\n');
    stream.write_all(&at_cap).expect("write");
    let answer = read_response(&mut reader).expect("a response at the cap");
    assert_eq!(answer.id, 3);
    assert_eq!(
        encode_response(&answer.result.expect("probe answer")),
        encode_response(&reference)
    );

    assert_fresh_connection_answers(daemon.addr(), &reference);
    daemon.shutdown();
    service.shutdown();
}

#[test]
fn zero_deadline_round_trips_a_stable_invalid_code() {
    let service = Arc::new(Service::start(ServeConfig::new().workers(1)));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let mut client = SocketClient::connect(daemon.addr()).expect("connect");

    let request = AnalysisRequest::SebOperatingPoint {
        spec: seb_spec(),
        power_w: 40.0,
    };
    // `deadline_ms: 0` must come back as a stable `invalid` rejection
    // with the request's own id (checked inside `call_with`), not as a
    // `deadline_expired` after burning a queue slot.
    let err = client
        .call_with(request.clone(), Priority::Normal, Some(0))
        .expect_err("zero deadline must be rejected");
    match err {
        Error::Remote { code, message } => {
            assert_eq!(code, "invalid");
            assert!(message.contains("deadline_ms"), "message: {message}");
        }
        other => panic!("expected the invalid code, got {other:?}"),
    }
    assert_eq!(service.stats().rejected_deadline, 0);

    // The same request with a real deadline still goes through.
    let answer = client
        .call_with(request, Priority::Normal, Some(60_000))
        .expect("nonzero deadline");
    assert!(matches!(answer, AnalysisResponse::OperatingPoint { .. }));

    daemon.shutdown();
    service.shutdown();
}

fn optimize_spec(ambient_c: f64, tilt_deg: f64) -> OptimizeSpec {
    OptimizeSpec {
        seed: 7,
        population: 8,
        generations: 1,
        tilt_deg,
        ambient_c,
        base_power_w: 120.0,
    }
}

#[test]
fn non_finite_optimize_inputs_are_invalid_requests() {
    let service = Arc::new(Service::start(ServeConfig::new().workers(1)));
    let mut workspace = Workspace::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (field, spec) in [
            ("ambient_c", optimize_spec(bad, 22.0)),
            ("tilt_deg", optimize_spec(25.0, bad)),
        ] {
            let request = AnalysisRequest::Optimize { spec };
            let err = request
                .run(&mut workspace)
                .expect_err("a non-finite input must not reach the optimizer");
            assert_eq!(err.code(), "invalid", "{field} = {bad}: {err}");
            assert!(err.to_string().contains(field), "{field} = {bad}: {err}");
            // The queued path answers alike, NaN included: the request
            // is refused before it is fingerprinted for the cache.
            let err = service.submit(request).wait().expect_err("queued");
            assert_eq!(err.code(), "invalid", "{field} = {bad}: {err}");
            assert!(err.to_string().contains(field), "{field} = {bad}: {err}");
        }
        for (field, spec) in [
            (
                "power_w",
                PlateSpec {
                    power_w: bad,
                    ..plate_spec()
                },
            ),
            (
                "h_w_m2k",
                PlateSpec {
                    h_w_m2k: bad,
                    ..plate_spec()
                },
            ),
        ] {
            for request in [
                AnalysisRequest::FvSteady { spec, scale: 1.0 },
                AnalysisRequest::FvSteady {
                    spec: plate_spec(),
                    scale: bad,
                },
            ] {
                let err = service.submit(request).wait().expect_err("queued");
                assert_eq!(err.code(), "invalid", "{field} = {bad}: {err}");
            }
        }
    }
    assert_eq!(service.stats().submitted, 0, "nothing non-finite is queued");

    // JSON has no non-finite numbers: such a line is a wire error, and
    // the connection goes on to answer a finite request.
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let (mut stream, mut reader) = raw_connect(daemon.addr());
    for line in [
        encode_request_line(&WireRequest {
            id: 1,
            priority: Priority::Normal,
            deadline_ms: None,
            request: AnalysisRequest::Optimize {
                spec: optimize_spec(f64::INFINITY, 22.0),
            },
        }),
        encode_request_line(&WireRequest {
            id: 2,
            priority: Priority::Normal,
            deadline_ms: None,
            request: AnalysisRequest::Optimize {
                spec: optimize_spec(25.0, 22.0),
            },
        }),
    ] {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }
    wire_error(read_response(&mut reader).expect("a response to the ∞ line"));
    let answer = read_response(&mut reader).expect("the connection stays open");
    assert_eq!(answer.id, 2);
    assert!(matches!(
        answer.result,
        Ok(AnalysisResponse::Pareto {
            evaluations: 16,
            ..
        })
    ));
    drop(stream);
    daemon.shutdown();
    service.shutdown();
}

#[test]
fn socket_daemon_answers_calls_and_pipelined_batches() {
    let service = Arc::new(Service::start(ServeConfig::new().workers(2)));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon");
    let mut client = SocketClient::connect(daemon.addr()).expect("connect");

    let answer = client
        .call(AnalysisRequest::SebOperatingPoint {
            spec: SebSpec {
                seat: SeatKind::Aluminum,
                lhp: true,
                tilt_deg: 0.0,
                ambient_c: 25.0,
            },
            power_w: 40.0,
        })
        .expect("seb call");
    assert!(matches!(answer, AnalysisResponse::OperatingPoint { .. }));

    let batch: Vec<AnalysisRequest> = [0.5, 1.0, 1.5]
        .iter()
        .map(|&scale| AnalysisRequest::FvSteady {
            spec: plate_spec(),
            scale,
        })
        .collect();
    let results = client.call_batch(batch).expect("batch");
    assert_eq!(results.len(), 3);
    for r in results {
        assert!(matches!(r, Ok(AnalysisResponse::Field { .. })));
    }

    daemon.shutdown();
    service.shutdown();
}
