//! `serve_open`: open-loop line-JSON traffic into an in-process daemon.
//!
//! One writer thread sends request lines on a fixed schedule over one
//! `TcpStream`; the main thread drains the responses. Every request is
//! timed from its due time, so a stall also counts against the requests
//! queued behind it. The mix covers SEB operating points and
//! capabilities, FV plate families that share a `PlateSpec` (sent back
//! to back, so the daemon can coalesce them), Level-2 boards, FEM modal
//! plates and a small share of climb–cruise–descent transients (the
//! heavy tail). A third of the requests repeat a recent one (cache).
//!
//! The run holds the nominal rate (the latency figures), then measures
//! capacity in closed-loop batches with a fixed number of requests in
//! flight (the throughput figure), then searches open-loop between the
//! two for the highest rate whose tail stays under the latency limit
//! with no growing backlog (reported, not a driver metric: a few short
//! steps on a shared two-thread host do not repeat well enough). Every
//! response must equal, bit for bit, the result of a direct
//! `Workload::run` of the same request made during set-up.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aeropack::serve::wire::{decode_response_line, encode_request_line, WireRequest};
use aeropack::serve::{
    serve, AnalysisRequest, AnalysisResponse, BoardSpec, Client, CoolingModeSpec, Daemon, Error,
    FemPlateSpec, MaterialKind, MissionSpec, PlateSpec, Priority, SchemeKind, SeatKind, SebSpec,
    ServeConfig, Service, ServiceStats, SocketClient, TransientSpec, Workload, Workspace,
};

use crate::layers;
use crate::rate::{search, Step};
use crate::rng::Rng;
use crate::stats::{median, nearest_rank, samples_needed, sorted};
use crate::trace::Tracer;
use crate::{hardware_threads, repeated_setup, Outcome, THREADS};

/// Offered rate of the nominal phase, requests/s.
const NOMINAL_RPS: f64 = 300.0;
/// Tail latency limit of the rate search, ms.
const LIMIT_MS: f64 = 50.0;
/// Share of the run spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.7;
/// Closed-loop capacity phase: requests sent, and requests kept in
/// flight (well under the daemon's 256-job queue, so none is refused).
const CAPACITY_REQUESTS: usize = 4000;
const CAPACITY_BATCHES: usize = 5;
const WINDOW: usize = 16;
/// Share of the run and probes of the open-loop rate search.
const SEARCH_SHARE: f64 = 0.2;
const SEARCH_PROBES: usize = 4;
/// Catalogue blocks of [`BLOCK`] distinct requests each.
const BLOCKS: usize = 8;
/// A repeat picks one of this many most recent requests.
const REPEAT_WINDOW: usize = 24;
/// Generator lag above which a run is flagged as not open-loop.
const LAG_FLAG_MS: f64 = 5.0;
/// A response that keeps the reader waiting this long counts as lost
/// (short enough that a stuck daemon still ends the run in time).
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Request kinds, for per-kind workload timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Seb,
    Fv,
    Board,
    Fem,
    Transient,
}

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Seb => "workload.seb_ms",
            Kind::Fv => "workload.fv_ms",
            Kind::Board => "workload.board_ms",
            Kind::Fem => "workload.fem_ms",
            Kind::Transient => "workload.transient_ms",
        }
    }
}

struct Item {
    request: AnalysisRequest,
    kind: Kind,
    /// The direct `Workload::run` result every response must equal.
    expected: AnalysisResponse,
    direct_ms: f64,
}

/// The `k`-th SEB configuration of a block: seat and heat pipes cycle
/// with `k`, the continuous parameters come from the seed.
fn seb_spec(rng: &mut Rng, k: usize) -> SebSpec {
    SebSpec {
        seat: if k.is_multiple_of(2) {
            SeatKind::Aluminum
        } else {
            SeatKind::CarbonComposite
        },
        lhp: (k / 2).is_multiple_of(2),
        tilt_deg: rng.range(0.0, 22.0),
        ambient_c: rng.range(20.0, 35.0),
    }
}

fn plate_spec(rng: &mut Rng, nx: usize, ny: usize) -> PlateSpec {
    PlateSpec {
        lx_m: rng.range(0.12, 0.2),
        ly_m: rng.range(0.08, 0.12),
        thickness_m: 0.0016,
        nx,
        ny,
        material: if nx % 8 == 4 {
            MaterialKind::Fr4
        } else {
            MaterialKind::Aluminum
        },
        power_w: rng.range(5.0, 20.0),
        h_w_m2k: rng.range(20.0, 60.0),
        ambient_c: rng.range(20.0, 40.0),
    }
}

/// Catalogue block `b`, as send events: an FV family is one event of
/// three requests (same plate, different scales) sent back to back.
/// What sets a request's cost (grid sizes, cooling modes, the one
/// transient per block) follows the request's place in the block, and
/// the seed draws the continuous parameters and the send order, so
/// every seed asks the daemon for about the same work.
fn block(rng: &mut Rng, b: usize) -> Vec<Vec<(AnalysisRequest, Kind)>> {
    let mut events: Vec<Vec<(AnalysisRequest, Kind)>> = Vec::new();
    for k in 0..9 {
        let spec = seb_spec(rng, k);
        let power_w = rng.range(10.0, 45.0);
        events.push(vec![(
            AnalysisRequest::SebOperatingPoint { spec, power_w },
            Kind::Seb,
        )]);
    }
    for k in 0..3 {
        let spec = seb_spec(rng, k);
        let dt_limit_k = rng.range(15.0, 35.0);
        events.push(vec![(
            AnalysisRequest::SebCapability { spec, dt_limit_k },
            Kind::Seb,
        )]);
    }
    for f in 0..3 {
        let spec = plate_spec(rng, 12 + 4 * f, 8 + 3 * f);
        events.push(
            (0..3)
                .map(|_| {
                    let scale = rng.range(0.5, 1.5);
                    (AnalysisRequest::FvSteady { spec, scale }, Kind::Fv)
                })
                .collect(),
        );
    }
    for k in 0..5 {
        let mode = if k % 2 == 0 {
            CoolingModeSpec::ForcedAir {
                flow_multiplier: rng.range(0.8, 1.5),
            }
        } else {
            CoolingModeSpec::ConductionCooled {
                rail_c: rng.range(40.0, 60.0),
            }
        };
        let spec = BoardSpec {
            power_w: rng.range(15.0, 35.0),
            mode,
            ambient_c: rng.range(25.0, 45.0),
            resolution_mm: 10.0,
        };
        let scale = rng.range(0.5, 1.5);
        events.push(vec![(
            AnalysisRequest::BoardSteady { spec, scale },
            Kind::Board,
        )]);
    }
    for k in 0..3 {
        let spec = FemPlateSpec {
            lx_m: rng.range(0.12, 0.2),
            ly_m: rng.range(0.08, 0.12),
            nx: 6,
            ny: 4,
            thickness_mm: 1.6,
            smeared_mass_kg_m2: rng.range(3.0, 6.0),
            material: MaterialKind::Fr4,
        };
        let n_modes = 3 + k;
        events.push(vec![(
            AnalysisRequest::FemModal { spec, n_modes },
            Kind::Fem,
        )]);
    }
    let spec = TransientSpec {
        plate: PlateSpec {
            lx_m: 0.16,
            ly_m: 0.1,
            thickness_m: 0.0016,
            nx: 8,
            ny: 6,
            material: MaterialKind::Fr4,
            power_w: 10.0,
            h_w_m2k: 40.0,
            ambient_c: 30.0,
        },
        mission: MissionSpec::ClimbCruiseDescent {
            cruise_altitude_m: 9_000.0 + 400.0 * b as f64,
            climb_s: 600.0,
            cruise_s: 1_800.0,
            descent_s: 600.0,
        },
        scheme: SchemeKind::Trapezoidal,
        fixed_dt_s: None,
        initial_c: 25.0,
    };
    events.push(vec![(AnalysisRequest::Transient { spec }, Kind::Transient)]);
    rng.shuffle(&mut events);
    events
}

/// Distinct requests per catalogue block.
const BLOCK: usize = 30;

/// The seeded catalogue, with each request's reference result.
fn catalogue(rng: &mut Rng) -> Vec<Item> {
    let mut ws = Workspace::new();
    let mut items = Vec::with_capacity(BLOCKS * BLOCK);
    for b in 0..BLOCKS {
        for (request, kind) in block(rng, b).into_iter().flatten() {
            let t0 = Instant::now();
            let expected = request
                .run(&mut ws)
                .unwrap_or_else(|e| panic!("catalogue request {} failed: {e}", request.tag()));
            let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
            items.push(Item {
                request,
                kind,
                expected,
                direct_ms,
            });
        }
    }
    debug_assert_eq!(items.len(), BLOCKS * BLOCK);
    items
}

/// A phase's schedule: catalogue index and due time of every request.
struct Schedule {
    items: Vec<usize>,
    due_s: Vec<f64>,
}

/// `n` requests at `rate`, evenly spaced. A third (at seeded
/// positions) repeat one of the last few requests; the rest walk the
/// catalogue from `cursor`, which is longer than the daemon's cache.
fn schedule(rng: &mut Rng, rate: f64, n: usize, cursor: &mut usize, len: usize) -> Schedule {
    let mut repeat: Vec<bool> = (0..n).map(|i| i % 3 == 2).collect();
    rng.shuffle(&mut repeat);
    let mut items: Vec<usize> = Vec::with_capacity(n);
    for (i, &r) in repeat.iter().enumerate() {
        if r && i > 0 {
            let back = 1 + rng.below(i.min(REPEAT_WINDOW));
            items.push(items[i - back]);
        } else {
            items.push(*cursor % len);
            *cursor += 1;
        }
    }
    Schedule {
        items,
        due_s: (0..n).map(|i| i as f64 / rate).collect(),
    }
}

/// The daemon under test and the benchmark's one connection to it.
struct Rig {
    service: Arc<Service>,
    daemon: Daemon,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

fn config() -> ServeConfig {
    ServeConfig::new().workers(THREADS)
}

impl Rig {
    fn start() -> Self {
        let service = Arc::new(Service::start(config()));
        let daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon binds");
        let stream = TcpStream::connect(daemon.addr()).expect("connect to daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Self {
            service,
            daemon,
            stream,
            reader,
            next_id: 1,
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.daemon.shutdown();
        self.service.shutdown();
    }
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Phase {
    due_s: Vec<f64>,
    done_s: Vec<f64>,
    lag_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    request_bytes: usize,
    queue_depth_max: u64,
    received: usize,
    /// Answered with the wrong result or an unexpected error, or never
    /// answered.
    failed: u64,
    /// Refused by admission control or deadline; such a request counts
    /// as missing any latency limit (its completion time is infinite).
    refused: u64,
    first_failure: Option<String>,
}

/// Sends `sched` over the rig's connection and drains the responses,
/// checking each against the catalogue. Open loop when `window` is
/// `None` (each request goes out at its due time); otherwise a closed
/// loop that keeps `window` requests in flight and takes each send time
/// as its due time.
fn drive(
    rig: &mut Rig,
    items: &[Item],
    sched: &Schedule,
    window: Option<usize>,
    tracer: &Tracer,
) -> Phase {
    let n = sched.items.len();
    let first_id = rig.next_id;
    rig.next_id += n as u64;
    let phase_span = tracer.open("bench.phase", None);
    let start = Instant::now() + Duration::from_millis(5);
    let mut writer = rig.stream.try_clone().expect("clone stream");
    let service = Arc::clone(&rig.service);
    let mut out = Phase {
        due_s: sched.due_s.clone(),
        ..Phase::default()
    };
    let answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let (mut lag_ms, mut encode_us, mut bytes, mut depth_max) =
                (Vec::new(), Vec::new(), 0, 0);
            let mut sent_s = Vec::new();
            let mut next_sample = Instant::now();
            for (k, (&item, &due)) in sched.items.iter().zip(&sched.due_s).enumerate() {
                let mut due_at = start + Duration::from_secs_f64(due);
                if let Some(w) = window {
                    while k >= answered.load(Ordering::Acquire) + w {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    due_at = Instant::now().max(start);
                    sent_s.push((due_at - start).as_secs_f64());
                }
                loop {
                    let now = Instant::now();
                    if now >= next_sample && tracer.enabled() {
                        depth_max = depth_max.max(service.stats().queue_depth);
                        next_sample = now + Duration::from_millis(10);
                    }
                    if now >= due_at {
                        break;
                    }
                    std::thread::sleep((due_at - now).min(Duration::from_millis(2)));
                }
                lag_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
                let req = WireRequest {
                    id: first_id + k as u64,
                    priority: Priority::Normal,
                    deadline_ms: None,
                    request: items[item].request.clone(),
                };
                let t = Instant::now();
                let mut line = encode_request_line(&req);
                let end = Instant::now();
                tracer.record("wire.encode", t, end, None, Some(req.id));
                encode_us.push((end - t).as_secs_f64() * 1e6);
                line.push('\n');
                bytes += line.len();
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            (lag_ms, encode_us, bytes, depth_max, sent_s)
        });

        let mut line = String::new();
        for (k, &item) in sched.items.iter().enumerate() {
            line.clear();
            match rig.reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let done = Instant::now();
            answered.fetch_add(1, Ordering::Release);
            out.done_s.push((done - start).as_secs_f64());
            out.received += 1;
            let t = Instant::now();
            let resp = decode_response_line(line.trim_end());
            let end = Instant::now();
            out.decode_us.push((end - t).as_secs_f64() * 1e6);
            let id = first_id + k as u64;
            let due_at = start + Duration::from_secs_f64(sched.due_s[k]);
            let request = tracer.record("serve.request", due_at, done, phase_span, Some(id));
            tracer.record("wire.decode", t, end, request, Some(id));
            let wrong = match resp {
                Ok(r) if r.id == id => match r.result {
                    Ok(v) if v == items[item].expected => None,
                    Ok(v) => Some(format!("{v:?} != expected {:?}", items[item].expected)),
                    Err(Error::QueueFull { .. } | Error::DeadlineExpired) => {
                        out.refused += 1;
                        out.done_s[k] = f64::INFINITY;
                        None
                    }
                    Err(e) => Some(format!("error {e}")),
                },
                Ok(r) => Some(format!("response id {} for request {id}", r.id)),
                Err(e) => Some(format!("undecodable response: {e}")),
            };
            if let Some(why) = wrong {
                out.failed += 1;
                out.first_failure.get_or_insert(format!(
                    "request {id} ({}): {why}",
                    items[item].request.tag()
                ));
            }
        }
        // Release a sender still waiting on the window if the
        // connection died.
        answered.store(usize::MAX / 2, Ordering::Release);
        let (lag_ms, encode_us, bytes, depth_max, mut sent_s) =
            sender.join().expect("load generator");
        if window.is_some() {
            let last = sent_s.last().copied().unwrap_or(0.0);
            sent_s.resize(n, last);
            out.due_s = sent_s;
        }
        out.lag_ms = lag_ms;
        out.encode_us = encode_us;
        out.request_bytes = bytes;
        out.queue_depth_max = depth_max;
    });
    tracer.close(phase_span);
    // Requests never answered count as failed; their latency is the
    // time waited so far.
    let lost = n - out.received;
    out.failed += lost as u64;
    let now = start.elapsed().as_secs_f64();
    out.done_s.resize(n, now);
    out
}

fn delta(after: ServiceStats, before: ServiceStats) -> ServiceStats {
    ServiceStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        rejected_queue_full: after.rejected_queue_full - before.rejected_queue_full,
        rejected_deadline: after.rejected_deadline - before.rejected_deadline,
        coalesced_batches: after.coalesced_batches - before.coalesced_batches,
        coalesced_jobs: after.coalesced_jobs - before.coalesced_jobs,
        queue_depth: after.queue_depth,
        cache_entries: after.cache_entries,
    }
}

/// Replays a schedule open-loop through an in-process `Client` (no wire,
/// no socket): submit cost, worker-side latency and its queue wait.
fn replay_in_process(items: &[Item], sched: &Schedule) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let client = Client::start(config());
    let (tx, rx) = std::sync::mpsc::channel::<(usize, aeropack::serve::Ticket)>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut submit_us = Vec::new();
    let (latency_ms, wait_ms) = std::thread::scope(|scope| {
        let drain = scope.spawn(move || {
            let (mut latency_ms, mut wait_ms) = (Vec::new(), Vec::new());
            for (item, ticket) in rx {
                if let (_, Some(timing)) = ticket.wait_timed() {
                    let l = timing.latency.as_secs_f64() * 1e3;
                    latency_ms.push(l);
                    wait_ms.push((l - items[item].direct_ms).max(0.0));
                }
            }
            (latency_ms, wait_ms)
        });
        for (&item, &due) in sched.items.iter().zip(&sched.due_s) {
            let due_at = start + Duration::from_secs_f64(due);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let t = Instant::now();
            let ticket = client.submit(items[item].request.clone());
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            tx.send((item, ticket)).expect("drain thread alive");
        }
        drop(tx);
        drain.join().expect("drain thread")
    });
    client.service().shutdown();
    (submit_us, latency_ms, wait_ms)
}

/// Idle round trip of the same cheap requests through the socket and
/// through the in-process client, p50 difference, ms. One worker and
/// no cache, and a first pass that warms the worker's models, so both
/// paths do the same work.
fn transport_overhead_ms(items: &[Item]) -> f64 {
    let service = Arc::new(Service::start(
        ServeConfig::new().workers(1).cache_capacity(0),
    ));
    let mut daemon = serve(Arc::clone(&service), "127.0.0.1:0").expect("daemon binds");
    let mut socket = SocketClient::connect(daemon.addr()).expect("connect");
    let client = Client::with_service(Arc::clone(&service));
    let sample: Vec<&Item> = items
        .iter()
        .filter(|i| i.kind == Kind::Seb)
        .take(40)
        .collect();
    for item in &sample {
        client.call(item.request.clone()).ok();
    }
    let (mut via_socket, mut in_process) = (Vec::new(), Vec::new());
    for item in &sample {
        let t = Instant::now();
        let a = socket.call(item.request.clone());
        via_socket.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let b = client.call(item.request.clone());
        in_process.push(t.elapsed().as_secs_f64() * 1e3);
        debug_assert!(a.is_ok() && b.is_ok());
    }
    drop(socket);
    daemon.shutdown();
    service.shutdown();
    median(&via_socket) - median(&in_process)
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (items, mut rig) = repeated_setup(&mut out, || {
        let mut rng = Rng::new(seed);
        let items = catalogue(&mut rng);
        let rig = Rig::start();
        // Warm-up outside the timed stream: requests from another seed,
        // so the cache holds nothing the timed stream asks for.
        let mut warm_rng = Rng::new(seed ^ 0xffff);
        let warm: Vec<(AnalysisRequest, Kind)> =
            block(&mut warm_rng, BLOCKS).into_iter().flatten().collect();
        let mut socket = SocketClient::connect(rig.daemon.addr()).expect("connect");
        for (request, _) in warm {
            socket.call(request).expect("warm-up request");
        }
        (items, rig)
    });

    let reg = aeropack::obs::global_registry();
    reg.clear();
    let mut rng = Rng::new(seed ^ 0x5c4e_d01e);
    let mut cursor = 0;
    let nominal_n = samples_needed(0.99).max((NOMINAL_RPS * seconds * NOMINAL_SHARE) as usize);
    let nominal = schedule(&mut rng, NOMINAL_RPS, nominal_n, &mut cursor, items.len());
    let before = rig.service.stats();
    let t0 = Instant::now();
    let phase = drive(&mut rig, &items, &nominal, None, tracer);
    let nominal_wall = t0.elapsed().as_secs_f64();
    let stats = delta(rig.service.stats(), before);
    out.attempted += nominal_n as u64;
    out.failed += phase.failed + phase.refused;
    let step = Step::from_times(NOMINAL_RPS, &phase.due_s, &phase.done_s, LIMIT_MS);
    let lag_p99 = nearest_rank(&sorted(phase.lag_ms.clone()), 0.99);
    out.p50_ms = step.p50_ms;
    out.tail_ms = step.tail_ms;

    let program_threads = THREADS + 3;
    out.note(format!(
        "nominal {NOMINAL_RPS} req/s x {nominal_n} requests ({nominal_wall:.1} s), latency limit {LIMIT_MS} ms, \
         catalogue {} distinct; program threads {program_threads} (workers {THREADS} + accept + connection reader/writer) \
         + generator 2 on {} hardware threads: oversubscribed={}",
        items.len(),
        hardware_threads(),
        program_threads + 2 > hardware_threads()
    ));
    out.note(format!(
        "p50={:.3} ms p99={:.3} ms (due-time, {} samples, {} beyond p99); generator lag p99={lag_p99:.3} ms{}",
        step.p50_ms,
        step.p99_ms,
        step.samples,
        crate::stats::beyond(step.samples, 0.99),
        if lag_p99 > LAG_FLAG_MS {
            " GENERATOR BEHIND: latency includes generator stalls"
        } else {
            ""
        }
    ));
    out.note(format!(
        "cache hits {} / {} lookups, {} coalesced batches ({} jobs), rejected {}",
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        stats.coalesced_batches,
        stats.coalesced_jobs,
        stats.rejected_queue_full + stats.rejected_deadline
    ));

    if let Some(why) = &phase.first_failure {
        out.note(format!("first failure: {why}"));
    }

    if !tracer.enabled() {
        // Capacity: fixed batches with WINDOW requests kept in flight
        // (a closed loop, so the schedule's due times go unused); the
        // median batch rate, so one disturbed batch does not move it.
        let batch = CAPACITY_REQUESTS / CAPACITY_BATCHES;
        let rates: Vec<f64> = (0..CAPACITY_BATCHES)
            .map(|_| {
                let sched = schedule(&mut rng, 1.0, batch, &mut cursor, items.len());
                let p = drive(&mut rig, &items, &sched, Some(WINDOW), tracer);
                out.attempted += batch as u64;
                out.failed += p.failed + p.refused;
                Step::from_times(0.0, &p.due_s, &p.done_s, LIMIT_MS).achieved_rps
            })
            .collect();
        let capacity = median(&rates);
        out.throughput_per_s = capacity;
        out.note(format!(
            "capacity_rps={capacity:.2} (median of {CAPACITY_BATCHES} batches of {batch} requests, \
             {WINDOW} in flight: {rates:.0?})"
        ));

        // Open-loop search between the nominal rate and the capacity
        // for the highest rate that meets the latency limit.
        let step_s = seconds * SEARCH_SHARE / SEARCH_PROBES as f64;
        let hi = capacity.max(2.0 * NOMINAL_RPS);
        let (steps, best) = search(NOMINAL_RPS, hi, SEARCH_PROBES, LIMIT_MS, |rate| {
            let n = ((rate * step_s) as usize).max(50);
            let sched = schedule(&mut rng, rate, n, &mut cursor, items.len());
            let p = drive(&mut rig, &items, &sched, None, tracer);
            // Refusals fail the step (infinite latency); only wrong or
            // missing answers are errors.
            out.attempted += n as u64;
            out.failed += p.failed;
            Step::from_times(rate, &p.due_s, &p.done_s, LIMIT_MS)
        });
        for s in &steps {
            out.note(format!(
                "rate step {:.1} req/s: achieved {:.1}, p50 {:.2} ms, p{} {:.2} ms over {} samples, in-flight {:?} -> {}",
                s.offered_rps,
                s.achieved_rps,
                s.p50_ms,
                s.tail_q * 100.0,
                s.tail_ms,
                s.samples,
                s.inflight,
                if s.passes(LIMIT_MS) { "pass" } else { "fail" }
            ));
        }
        out.note(match best {
            Some(i) => format!(
                "sustained_rps={:.2} (open loop, tail <= {LIMIT_MS} ms, no growing backlog; \
                 {SEARCH_PROBES} steps of {step_s:.2} s)",
                steps[i].achieved_rps
            ),
            None => format!("sustained_rps unresolved: even {NOMINAL_RPS} req/s missed the limit"),
        });
        return out;
    }

    // Traced run: per-layer figures. Program counters cover the nominal
    // phase only. Layer coverage is left at 0: requests overlap, so
    // their self times sum past the wall.
    layers::program_counters(&mut out, &reg, nominal_n as f64);
    out.throughput_per_s = step.achieved_rps;
    out.layer("loadgen.lag_p99_ms", lag_p99);
    out.layer("loadgen.sent", phase.lag_ms.len() as f64);
    out.layer("loadgen.received", phase.received as f64);
    out.layer("wire.encode_us", median(&phase.encode_us));
    out.layer("wire.decode_us", median(&phase.decode_us));
    out.layer(
        "wire.bytes_per_req",
        phase.request_bytes as f64 / phase.lag_ms.len().max(1) as f64,
    );
    out.layer("serve.queue_depth_max", phase.queue_depth_max as f64);
    let lookups = stats.cache_hits + stats.cache_misses;
    out.layer(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
    );
    out.layer(
        "serve.coalesce_jobs_per_batch",
        stats.coalesced_jobs as f64 / stats.coalesced_batches.max(1) as f64,
    );
    out.layer(
        "serve.rejected",
        (stats.rejected_queue_full + stats.rejected_deadline) as f64,
    );
    let mut per_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for item in &items {
        per_kind.entry(item.kind).or_default().push(item.direct_ms);
    }
    for (kind, ms) in &per_kind {
        out.layer(kind.metric(), median(ms));
    }
    let (submit_us, latency_ms, wait_ms) = replay_in_process(&items, &nominal);
    out.layer("serve.submit_us", median(&submit_us));
    out.layer(
        "serve.worker_latency_p99_ms",
        nearest_rank(&sorted(latency_ms), 0.99),
    );
    out.layer("serve.queue_wait_ms", median(&wait_ms));
    out.layer("transport.overhead_ms", transport_overhead_ms(&items));
    out.layer(
        "obs.overhead_frac",
        layers::obs_overhead(|| {
            let mut ws = Workspace::new();
            for item in items.iter().take(BLOCK) {
                std::hint::black_box(item.request.run(&mut ws)).ok();
            }
        }),
    );
    drop(rig);
    out
}
