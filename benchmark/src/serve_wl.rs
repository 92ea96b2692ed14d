//! The service workloads, `serve_hot` and `serve_mixed`: an in-process
//! `wormsim-serve` server driven over real loopback TCP connections.
//!
//! Both are one [`session`]: start a server, pre-fill its result cache,
//! then run a closed-loop hit segment and/or an open-loop mixed segment.
//! The end-to-end workloads each run one segment at full size; the traced
//! pass of a non-service workload runs a small session with both, so the
//! service layers have a number beside every workload.

use crate::gen::{derive, scaled, SplitMix};
use crate::host;
use crate::stats::{median, percentile, sort, summarize};
use crate::workload::{Ctx, Outcome};
use std::collections::hash_map::{Entry, HashMap};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use wormsim_experiments::run_custom;
use wormsim_serve::{
    read_frame, write_frame, Client, PatternInterner, Request, Response, Server, ServerConfig,
    WireSpec,
};
use wormsim_topology::Coord;

/// Every service spec: 10×10, 500 + 1 500 cycles, near-saturation load.
pub const SPEC_RATE: f64 = 0.004;
pub const SPEC_WARMUP: u64 = 500;
pub const SPEC_MEASURE: u64 = 1_500;
const ALGORITHMS: [&str; 4] = ["Duato", "Nbc", "NHop", "MinimalAdaptive"];

/// Every 16th answer is byte-compared with an in-process `run_custom`.
const VERIFY_EVERY: usize = 16;

/// Latency limits behind `serve.slo_ok_ratio`.
const HIT_SLO_US: f64 = 2_000.0;
const COLD_SLO_MS: f64 = 150.0;

/// Open-loop request rate, and the mix it is dealt from: of every 100
/// requests 60 are hits, 25 cold, and 15 duplicates of one of those cold
/// requests sent back-to-back with it. In schedule units that is 60
/// hits, 10 lone cold requests and 15 cold + duplicate pairs.
const MIXED_RATE: f64 = 80.0;
const DECK: [(Unit, usize); 3] = [(Unit::Hit, 60), (Unit::Cold, 10), (Unit::Pair, 15)];
const DECK_REQUESTS: usize = 100;

/// Spec indices from here up are never pre-filled: the cold requests.
const COLD_BASE: u64 = 1 << 32;

/// The `index`-th spec of this seed; odd ones carry two interior faults.
pub fn wire_spec(seed: u64, index: u64) -> WireSpec {
    let algorithm = ALGORITHMS[(index % ALGORITHMS.len() as u64) as usize];
    let mut spec = WireSpec::basic(
        crate::engine_wl::MESH,
        algorithm,
        SPEC_RATE,
        derive(seed, 5, index),
    );
    spec.warmup_cycles = SPEC_WARMUP;
    spec.measure_cycles = SPEC_MEASURE;
    if index % 2 == 1 {
        // Interior nodes, so no pattern can cut the mesh in two.
        let mut mix = SplitMix::new(derive(seed, 6, index));
        let mut cell = || Coord::new(2 + mix.below(6) as u16, 2 + mix.below(6) as u16);
        let first = cell();
        let mut second = cell();
        while second == first {
            second = cell();
        }
        spec.faults = vec![first, second];
    }
    spec
}

/// What a direct `run_custom` call answers for `spec`, in wire form.
fn reference_json(spec: &WireSpec, interner: &PatternInterner) -> Result<String, String> {
    let custom = spec.to_custom(interner).map_err(|e| e.to_string())?;
    let report = run_custom(&custom).map_err(|e| e.to_string())?;
    serde_json::to_string(&report).map_err(|e| e.to_string())
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Unit {
    Hit,
    Cold,
    Pair,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    Hit,
    Cold,
    Join,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "serve.request.hit",
            Class::Cold => "serve.request.cold",
            Class::Join => "serve.request.join",
        }
    }
}

/// One open-loop request: when it is due, what it asks, and the outcome
/// class a correct server answers it in.
#[derive(Clone, Debug)]
pub struct Planned {
    pub id: u64,
    /// Nanoseconds after the segment starts.
    pub due_ns: u64,
    pub spec_index: u64,
    pub class: Class,
}

/// The open-loop schedule for `seconds` at `MIXED_RATE`: a seed-shuffled
/// deck, so every seed sends exactly the same mix in a different order.
pub fn mixed_schedule(seed: u64, seconds: f64, prefilled: u64) -> Vec<Planned> {
    let deck_units: usize = DECK.iter().map(|(_, n)| n).sum();
    let unit_interval_ns = 1e9 * DECK_REQUESTS as f64 / (MIXED_RATE * deck_units as f64);
    let units = (seconds * 1e9 / unit_interval_ns).floor() as usize;
    let mut mix = SplitMix::new(derive(seed, 7, 0));
    let mut plan = Vec::new();
    let mut deck: Vec<Unit> = Vec::new();
    let mut cold = COLD_BASE;
    for k in 0..units {
        if deck.is_empty() {
            deck = DECK
                .iter()
                .flat_map(|&(unit, n)| std::iter::repeat(unit).take(n))
                .collect();
            // Fisher–Yates, drawing from the back.
            for i in (1..deck.len()).rev() {
                deck.swap(i, mix.below(i as u64 + 1) as usize);
            }
        }
        let unit = deck.pop().expect("deck was just refilled");
        let due_ns = (k as f64 * unit_interval_ns) as u64;
        let mut push = |spec_index, class| {
            let id = plan.len() as u64 + 1;
            plan.push(Planned {
                id,
                due_ns,
                spec_index,
                class,
            });
        };
        match unit {
            Unit::Hit => push(mix.below(prefilled), Class::Hit),
            Unit::Cold | Unit::Pair => {
                push(cold, Class::Cold);
                if unit == Unit::Pair {
                    push(cold, Class::Join);
                }
                cold += 1;
            }
        }
    }
    plan
}

/// How late a request left, against when it was due. Latencies are taken
/// from `due`, so a generator stall is charged to the requests it delayed
/// and not silently omitted.
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Distinct specs whose results are cached before anything is timed.
    pub prefill: usize,
    /// Closed-loop hits per round, over all connections; 0 skips the
    /// segment.
    pub hits_per_round: usize,
    pub rounds: usize,
    /// Lone pings, and lone hits, on the idle server.
    pub pings: usize,
    /// Open-loop seconds; 0 skips the segment.
    pub mixed_seconds: f64,
}

#[derive(Debug, Default)]
struct Hot {
    round_rates: Vec<f64>,
    latency_us: Vec<f64>,
    rss_per_hit: f64,
    /// CPU time of the whole process — server and load generator — per
    /// hit, and the share of the host's cores the hit loop kept busy.
    cpu_us_per_hit: f64,
    busy_ratio: f64,
}

#[derive(Debug, Default)]
struct Mixed {
    hit_us: Vec<f64>,
    cold_ms: Vec<f64>,
    join_ms: Vec<f64>,
    lag_us: Vec<f64>,
    answered: usize,
    wall_s: f64,
}

/// Requests checked so far and what went wrong with them.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Requests held to a latency limit — those sent one at a time or on
    /// the open-loop schedule, not the saturating hit loop's — and how
    /// many met it. A failed one never does.
    slo_held: u64,
    slo_ok: u64,
    /// The first few failures' descriptions.
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

struct Live {
    server: Server,
    addr: String,
    /// Fingerprint the pre-fill answered for each spec index.
    filled: Vec<String>,
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("cannot connect to the server: {e}"))
}

/// Start a server and run `prefill` distinct specs through it, on one
/// closed-loop connection per core. Every answer must be a cold run.
fn set_up(seed: u64, prefill: usize, tally: &mut Tally) -> Result<Live, String> {
    let server = Server::start(ServerConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let conns = host::cores().min(prefill).max(1);
    let parts: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = connect(addr)?;
                    let mut answers = Vec::new();
                    for index in (c..prefill).step_by(conns) {
                        let answer = client
                            .run_spec(&wire_spec(seed, index as u64))
                            .map_err(|e| format!("pre-fill request {index} failed: {e}"))?;
                        if answer.cached || answer.deduped {
                            return Err(format!("pre-fill request {index} did not run cold"));
                        }
                        answers.push((index, answer.fingerprint));
                    }
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a pre-fill thread panicked"))
            .collect()
    });
    let mut filled = vec![String::new(); prefill];
    for part in parts {
        for (index, fingerprint) in part? {
            filled[index] = fingerprint;
        }
    }
    tally.attempted += prefill as u64;
    Ok(Live {
        server,
        addr,
        filled,
    })
}

/// Round trips on an otherwise idle server, one at a time through the
/// public `Client`: `count` pings and `count` cache hits, interleaved.
/// Their difference is what a hit costs beyond the transport.
fn unloaded_rtts_us(
    seed: u64,
    live: &Live,
    count: usize,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut client = connect(&live.addr)?;
    let (mut pings, mut hits) = (Vec::with_capacity(count), Vec::with_capacity(count));
    for i in 0..count {
        let start = Instant::now();
        client.ping().map_err(|e| format!("ping failed: {e}"))?;
        pings.push(start.elapsed().as_nanos() as f64 / 1e3);

        let index = i % live.filled.len();
        let spec = wire_spec(seed, index as u64);
        let start = Instant::now();
        let answer = client.run_spec(&spec);
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        hits.push(us);
        tally.attempted += 1;
        tally.slo_held += 1;
        match answer {
            Ok(a) if a.cached && a.fingerprint == live.filled[index] => {
                tally.slo_ok += u64::from(us <= HIT_SLO_US)
            }
            Ok(_) => tally.fail(format!("lone hit {i} was not its spec's cached report")),
            Err(e) => tally.fail(format!("lone hit {i} failed: {e}")),
        }
    }
    Ok((pings, hits))
}

/// Requests each hit connection keeps outstanding. With one, a request is
/// three thread wake-ups end to end and the loop measures the host's
/// scheduler: rounds of one run ranged 6 k–14.5 k req/s on the reference
/// host. With several, every thread of the request path stays runnable and
/// the loop measures the work per request.
const WINDOW: usize = 8;

/// Connections of the hit loop: two per core, so that with their windows
/// full every core always has a runnable thread of the request path. One
/// pipelined connection ran at either 13 k or 22 k req/s for a whole
/// process, by where the scheduler had put its three threads.
fn hit_connections() -> usize {
    (2 * host::cores()).min(8)
}

/// Whether `frame` answers request `id` from the cache with the report
/// fingerprinted `fingerprint` — and, where `report` is given, with
/// exactly those report bytes. An unverified hit is read as text first,
/// because a full parse of a result frame costs the load generator more
/// than the whole request costs the server; it is parsed only when the
/// text does not read as expected, so a change of wire layout cannot fail
/// a hit.
fn check_hit(frame: &[u8], id: u64, fingerprint: &str, report: Option<&str>) -> Result<(), String> {
    let text = std::str::from_utf8(frame).map_err(|e| e.to_string())?;
    // A quote inside the embedded report is escaped, so these can only
    // match the frame's own fields.
    if report.is_none()
        && text.starts_with(&format!("{{\"Result\":{{\"id\":{id},"))
        && text.contains("\"cached\":true")
        && text.contains(&format!("\"fingerprint\":\"{fingerprint}\""))
    {
        return Ok(());
    }
    match serde_json::from_str(text).map_err(|e| e.to_string())? {
        Response::Result {
            id: got,
            report_json,
            fingerprint: fp,
            cached,
            ..
        } => {
            if got != id {
                Err(format!("answers request {got}"))
            } else if !cached {
                Err("was not served from the cache".into())
            } else if fp != fingerprint {
                Err("carries another spec's report".into())
            } else if report.is_some_and(|r| r != report_json) {
                Err("differs from an in-process run_custom".into())
            } else {
                Ok(())
            }
        }
        other => Err(format!("is not a result: {other:?}")),
    }
}

/// One connection's share of the hit segment: `plan.rounds` rounds of
/// `plan.hits_per_round` requests, [`WINDOW`] outstanding at a time. Never
/// returns early, so it always meets the others at the barrier; after a
/// transport error the remaining requests are counted as failed.
fn hit_rounds(
    ctx: &Ctx<'_>,
    plan: &Plan,
    live: &Live,
    references: &[String],
    conn: usize,
    stream: TcpStream,
    barrier: &Barrier,
) -> (Vec<f64>, Tally) {
    let mut mix = SplitMix::new(derive(ctx.seed, 8, conn as u64));
    let mut latency_us = Vec::with_capacity(plan.rounds * plan.hits_per_round);
    let mut tally = Tally::default();
    let mut broken = None;
    let mut writer = match stream.try_clone() {
        Ok(writer) => Some(writer),
        Err(e) => {
            broken = Some(e.to_string());
            None
        }
    };
    let mut reader = BufReader::new(stream);
    // (request id, spec index, byte-compare it, span, send time)
    let mut pending = std::collections::VecDeque::with_capacity(WINDOW);
    for round in 0..plan.rounds {
        barrier.wait();
        let mut sent = 0;
        for _ in 0..plan.hits_per_round {
            tally.attempted += 1;
            if broken.is_some() {
                continue;
            }
            let writer = writer.as_mut().expect("not broken, so it was cloned");
            while pending.len() < WINDOW && sent < plan.hits_per_round {
                let call = round * plan.hits_per_round + sent;
                sent += 1;
                let verify = call % VERIFY_EVERY == 0;
                let index = if verify {
                    mix.below(references.len() as u64)
                } else {
                    mix.below(live.filled.len() as u64)
                };
                let id = (conn as u64) << 32 | call as u64;
                let request = Request::Run {
                    id,
                    spec: wire_spec(ctx.seed, index),
                };
                let payload = serde_json::to_string(&request).expect("a request serializes");
                let open = ctx.tracer.begin(Class::Hit.name(), None, id);
                if let Err(e) = write_frame(writer, payload.as_bytes()) {
                    broken = Some(format!("sending hit {call} failed: {e}"));
                    break;
                }
                pending.push_back((id, index as usize, verify, open, Instant::now()));
            }
            // Hits on one connection are answered in request order.
            let Some((id, index, verify, open, sent_at)) = pending.pop_front() else {
                continue;
            };
            let frame = match read_frame(&mut reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    broken = Some("the server closed a hit connection".into());
                    continue;
                }
                Err(e) => {
                    broken = Some(format!("reading a hit answer failed: {e}"));
                    continue;
                }
            };
            let us = sent_at.elapsed().as_nanos() as f64 / 1e3;
            ctx.tracer.end(open);
            latency_us.push(us);
            let report = verify.then(|| references[index].as_str());
            let checked = check_hit(&frame, id, &live.filled[index], report);
            if let Err(e) = checked {
                tally.fail(format!("hit {id:#x} {e}"));
            }
        }
        barrier.wait();
    }
    if let Some(e) = broken {
        let lost = tally.attempted - latency_us.len() as u64;
        tally.fail(format!("{e}; {lost} hits went unanswered"));
        tally.failed += lost - 1;
    }
    (latency_us, tally)
}

/// The closed-loop hit segment: one connection per core over the
/// pre-filled set; rounds are fenced by a barrier so each round's rate is
/// taken over the same amount of work.
fn hot_segment(
    ctx: &Ctx<'_>,
    plan: &Plan,
    live: &Live,
    references: &[String],
    tally: &mut Tally,
) -> Result<Hot, String> {
    let conns = hit_connections();
    // From here on the plan is one connection's share.
    let plan = &Plan {
        hits_per_round: (plan.hits_per_round / conns).max(1),
        ..*plan
    };
    // Connected before any thread can wait on the barrier, so a refused
    // connection cannot strand the others there.
    let streams = (0..conns)
        .map(|_| {
            let stream = TcpStream::connect(&live.addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            Ok(stream)
        })
        .collect::<Result<Vec<TcpStream>, String>>()?;
    let barrier = Barrier::new(conns + 1);
    let rss_before = host::rss_bytes();
    let cpu_before = host::cpu_seconds();
    let (round_rates, parts) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let barrier = &barrier;
                scope.spawn(move || hit_rounds(ctx, plan, live, references, c, stream, barrier))
            })
            .collect();
        let mut rates = Vec::with_capacity(plan.rounds);
        for _ in 0..plan.rounds {
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            rates.push((conns * plan.hits_per_round) as f64 / start.elapsed().as_secs_f64());
        }
        let parts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect();
        (rates, parts)
    });
    let prefill = live.filled.len() as u64;
    let cpu_s = host::cpu_seconds() - cpu_before;
    let per_round = (conns * plan.hits_per_round) as f64;
    let wall_s: f64 = round_rates.iter().map(|rate| per_round / rate).sum();
    let hits = per_round * plan.rounds as f64;
    let mut hot = Hot {
        round_rates,
        latency_us: Vec::new(),
        rss_per_hit: (host::rss_bytes() - rss_before) / hits,
        cpu_us_per_hit: cpu_s * 1e6 / hits,
        busy_ratio: cpu_s / (wall_s * host::cores() as f64),
    };
    for (latency_us, part_tally) in parts {
        hot.latency_us.extend(latency_us);
        tally.merge(part_tally);
    }
    let jobs_run = live.server.stats().jobs_run;
    if jobs_run != prefill {
        tally.fail(format!(
            "{jobs_run} simulations ran during a hit-only segment over {prefill} cached specs"
        ));
    }
    Ok(hot)
}

/// The open-loop mixed segment: one connection, a sender thread on a
/// fixed schedule and a receiver thread that stamps each arrival before
/// parsing it. Latency runs from the request's *intended* send time.
fn mixed_segment(
    ctx: &Ctx<'_>,
    plan: &Plan,
    live: &Live,
    interner: &PatternInterner,
    tally: &mut Tally,
) -> Result<Mixed, String> {
    let schedule = mixed_schedule(ctx.seed, plan.mixed_seconds, live.filled.len() as u64);
    let frames: Vec<Vec<u8>> = schedule
        .iter()
        .map(|p| {
            let request = Request::Run {
                id: p.id,
                spec: wire_spec(ctx.seed, p.spec_index),
            };
            serde_json::to_string(&request)
                .expect("a request always serializes")
                .into_bytes()
        })
        .collect();
    let stream = TcpStream::connect(&live.addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let epoch = Instant::now();
    let trace_epoch = ctx.tracer.now();

    // (arrival ns, response) per answer, in arrival order.
    type Received = Result<Vec<(u64, Response)>, String>;
    let (lag_us, received): (Result<Vec<f64>, String>, Received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> Received {
            let mut got = Vec::with_capacity(schedule.len());
            while got.len() < schedule.len() {
                let frame = read_frame(&mut reader)
                    .map_err(|e| format!("reading an answer failed: {e}"))?
                    .ok_or("the server closed the open-loop connection")?;
                let arrived = epoch.elapsed().as_nanos() as u64;
                let text = std::str::from_utf8(&frame).map_err(|e| e.to_string())?;
                let response: Response = serde_json::from_str(text).map_err(|e| e.to_string())?;
                got.push((arrived, response));
            }
            Ok(got)
        });
        let sender = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut lag_us = Vec::with_capacity(schedule.len());
            for (planned, frame) in schedule.iter().zip(&frames) {
                let due = Duration::from_nanos(planned.due_ns);
                if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent_ns = epoch.elapsed().as_nanos() as u64;
                write_frame(&mut writer, frame)
                    .map_err(|e| format!("sending request {} failed: {e}", planned.id))?;
                lag_us.push(lateness_ns(planned.due_ns, sent_ns) as f64 / 1e3);
            }
            Ok(lag_us)
        });
        (
            sender.join().expect("the sender panicked"),
            receiver.join().expect("the receiver panicked"),
        )
    });
    let received = received?;
    let wall_s = received.last().map_or(0.0, |(at, _)| *at as f64 / 1e9);

    let mut mixed = Mixed {
        lag_us: lag_us?,
        answered: received.len(),
        wall_s,
        ..Mixed::default()
    };
    let mut references: HashMap<u64, String> = HashMap::new();
    for (n, (arrived, response)) in received.iter().enumerate() {
        tally.attempted += 1;
        tally.slo_held += 1;
        let Response::Result {
            id,
            report_json,
            cached,
            deduped,
            ..
        } = response
        else {
            tally.fail(format!("answer {n} is not a result: {response:?}"));
            continue;
        };
        // Ids are the schedule's positions, from 1.
        let Some(planned) = id.checked_sub(1).and_then(|i| schedule.get(i as usize)) else {
            tally.fail(format!("answer {n} carries unknown id {id}"));
            continue;
        };
        let ms = arrived.saturating_sub(planned.due_ns) as f64 / 1e6;
        ctx.tracer.record(
            planned.class.name(),
            trace_epoch + planned.due_ns,
            trace_epoch + arrived,
            *id,
            Vec::new(),
        );
        let class = match (cached, deduped) {
            (true, false) => Class::Hit,
            (false, true) => Class::Join,
            _ => Class::Cold,
        };
        if class != planned.class {
            tally.fail(format!(
                "request {id} was planned as {:?} but answered as {class:?}",
                planned.class
            ));
            continue;
        }
        if n % VERIFY_EVERY == 0 {
            let reference = match references.entry(planned.spec_index) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(new) => {
                    let spec = wire_spec(ctx.seed, planned.spec_index);
                    new.insert(reference_json(&spec, interner)?)
                }
            };
            if reference != report_json {
                tally.fail(format!(
                    "request {id} differs from an in-process run_custom"
                ));
                continue;
            }
        }
        let within = match class {
            Class::Hit => {
                mixed.hit_us.push(ms * 1e3);
                ms * 1e3 <= HIT_SLO_US
            }
            Class::Cold => {
                mixed.cold_ms.push(ms);
                ms <= COLD_SLO_MS
            }
            Class::Join => {
                mixed.join_ms.push(ms);
                ms <= COLD_SLO_MS
            }
        };
        tally.slo_ok += u64::from(within);
    }
    Ok(mixed)
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one (a
/// session without the segment that would have produced it).
fn percentile_or_zero(samples: &mut [f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    sort(samples);
    percentile(samples, pct)
}

/// Run one session and fold it into an [`Outcome`]. The caller picks
/// which segment supplies the end-to-end numbers.
fn session(ctx: &Ctx<'_>, plan: &Plan) -> Result<(Outcome, Hot, Mixed), String> {
    let session_span = ctx.tracer.begin("serve.session", None, 0);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..ctx.setup_reps.max(1) {
        if let Some(Live { server, .. }) = live.take() {
            server.stop();
        }
        let mut rep_tally = Tally::default();
        let open = ctx.tracer.begin("serve.setup", session_span.id(), 0);
        let start = Instant::now();
        live = Some(set_up(ctx.seed, plan.prefill, &mut rep_tally)?);
        setups.push(start.elapsed().as_secs_f64());
        ctx.tracer.end(open);
        tally = rep_tally;
    }
    let live = live.expect("at least one set-up ran");
    let interner = PatternInterner::default();

    let (mut pings, mut lone_hits) = unloaded_rtts_us(ctx.seed, &live, plan.pings, &mut tally)?;
    let ping_p50 = percentile_or_zero(&mut pings, 50.0);
    let lone_hit_p50 = percentile_or_zero(&mut lone_hits, 50.0);

    let mut hot = Hot::default();
    if plan.hits_per_round > 0 {
        let references = (0..VERIFY_EVERY.min(plan.prefill))
            .map(|i| reference_json(&wire_spec(ctx.seed, i as u64), &interner))
            .collect::<Result<Vec<_>, _>>()?;
        let open = ctx.tracer.begin("serve.hot_segment", session_span.id(), 0);
        hot = hot_segment(ctx, plan, &live, &references, &mut tally)?;
        ctx.tracer.end(open);
    }
    let mut mixed = Mixed::default();
    if plan.mixed_seconds > 0.0 {
        let open = ctx
            .tracer
            .begin("serve.mixed_segment", session_span.id(), 0);
        mixed = mixed_segment(ctx, plan, &live, &interner, &mut tally)?;
        ctx.tracer.end(open);
    }

    // The server's own view: scraped over the wire like any client would.
    let (snapshot, _) = connect(&live.addr)?
        .metrics()
        .map_err(|e| format!("scraping metrics failed: {e}"))?;
    let histogram_p50 = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.p50 as f64);
    let queue_wait_p50_us = histogram_p50("wormsim_queue_wait_seconds") / 1e3;
    let exec_p50_ms = histogram_p50("wormsim_execution_seconds") / 1e6;
    let metrics = live.server.metrics();
    let scrapes: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let text = wormsim_obs::render_prometheus(&metrics.snapshot());
            std::hint::black_box(text);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let stats = live.server.stop();
    ctx.tracer.end_with(
        session_span,
        vec![
            ("queue_wait_p50_us", queue_wait_p50_us),
            ("exec_p50_ms", exec_p50_ms),
        ],
    );

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        setup_s: median(&setups),
        ..Outcome::default()
    };
    let mut all_hits_us: Vec<f64> = hot
        .latency_us
        .iter()
        .chain(&mixed.hit_us)
        .copied()
        .collect();
    let rejects = stats.quota_rejects
        + stats.backpressure_rejects
        + stats.bad_spec_rejects
        + stats.config_rejects;
    out.layer = vec![
        ("serve.ping_rtt_us", ping_p50),
        ("serve.hit_overhead_us", lone_hit_p50 - ping_p50),
        ("serve.rss_per_hit_bytes", hot.rss_per_hit),
        ("serve.cpu_us_per_hit", hot.cpu_us_per_hit),
        ("serve.hit_loop_busy_ratio", hot.busy_ratio),
        ("serve.queue_wait_p50_us", queue_wait_p50_us),
        ("serve.exec_p50_ms", exec_p50_ms),
        (
            "serve.hit_p99_us",
            percentile_or_zero(&mut all_hits_us, 99.0),
        ),
        (
            "serve.join_p50_ms",
            percentile_or_zero(&mut mixed.join_ms, 50.0),
        ),
        (
            "serve.cold_p95_ms",
            percentile_or_zero(&mut mixed.cold_ms, 95.0),
        ),
        (
            "serve.join_p95_ms",
            percentile_or_zero(&mut mixed.join_ms, 95.0),
        ),
        (
            "serve.slo_ok_ratio",
            tally.slo_ok as f64 / tally.slo_held.max(1) as f64,
        ),
        ("serve.jobs_run", stats.jobs_run as f64),
        (
            "serve.cache_hit_ratio",
            stats.cache_hits as f64 / stats.requests.max(1) as f64,
        ),
        ("serve.dedup_joins", stats.dedup_joins as f64),
        ("serve.rejects", rejects as f64),
        ("obs.scrape_us", median(&scrapes)),
        (
            "bench.send_lag_p99_us",
            percentile_or_zero(&mut mixed.lag_us, 99.0),
        ),
    ];
    Ok((out, hot, mixed))
}

/// Fold a session error (the server could not be driven at all) into an
/// outcome that reports it as a failed operation.
fn or_failed(result: Result<Outcome, String>) -> Outcome {
    result.unwrap_or_else(|e| {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.fail(e);
        out
    })
}

/// 256 cached specs, then 40 000 closed-loop hits in 25 equal rounds over
/// two connections per core, each keeping [`WINDOW`] requests outstanding.
/// A fixed request count, not a duration: the server holds on to memory
/// per hit, so equal work needs equal counts.
pub fn serve_hot(ctx: &Ctx<'_>) -> Outcome {
    let plan = Plan {
        prefill: scaled(256, ctx.scale, VERIFY_EVERY),
        hits_per_round: scaled(1_600, ctx.scale, 4 * VERIFY_EVERY),
        rounds: 25,
        pings: 200,
        mixed_seconds: 0.0,
    };
    or_failed(session(ctx, &plan).map(|(mut out, mut hot, _)| {
        let hits = summarize(&mut hot.latency_us);
        out.ops_per_s = median(&hot.round_rates);
        out.round_rates = hot.round_rates;
        out.op_p50_ms = hits.p50 / 1e3;
        out.native = vec![
            ("req_per_s", out.ops_per_s, "req/s"),
            ("hit_p50_us", hits.p50, "us"),
        ];
        if let Some((pct, v)) = hits.tail.filter(|(p, _)| *p > 50.0) {
            out.notes.push(format!(
                "cache hit, send to answer: p50 {:.1} us, p{pct} {v:.1} us over {} requests",
                hits.p50, hits.count
            ));
        }
        out.notes.push(format!(
            "hit loop: {:.1} us of CPU per hit (server and load generator), cores {:.0} % busy",
            hot.cpu_us_per_hit,
            hot.busy_ratio * 100.0
        ));
        out
    }))
}

/// 128 cached specs, then one open-loop connection at 80 req/s for 12.5 s
/// (ten whole decks, so every seed sends exactly the same mix):
/// hits, never-seen cold specs and back-to-back duplicates interleaved.
pub fn serve_mixed(ctx: &Ctx<'_>) -> Outcome {
    let plan = Plan {
        prefill: scaled(128, ctx.scale, VERIFY_EVERY),
        hits_per_round: 0,
        rounds: 0,
        pings: 200,
        mixed_seconds: 12.5 * ctx.scale,
    };
    or_failed(session(ctx, &plan).and_then(|(mut out, _, mut mixed)| {
        if mixed.cold_ms.is_empty() || mixed.join_ms.is_empty() {
            return Err("the open-loop segment is too short to hold a cold and a join".into());
        }
        let cold = summarize(&mut mixed.cold_ms);
        let join = summarize(&mut mixed.join_ms);
        out.ops_per_s = mixed.answered as f64 / mixed.wall_s;
        out.op_p50_ms = cold.p50;
        out.native = vec![
            ("cold_p50_ms", cold.p50, "ms"),
            ("join_p50_ms", join.p50, "ms"),
        ];
        for (what, s) in [("cold run", &cold), ("dedup join", &join)] {
            if let Some((pct, v)) = s.tail.filter(|(p, _)| *p > 50.0) {
                out.notes.push(format!(
                    "{what}, intended send to answer: p50 {:.2} ms, p{pct} {v:.2} ms over {} \
                     requests",
                    s.p50, s.count
                ));
            }
        }
        Ok(out)
    }))
}

/// The small hit + mixed session the traced pass of a non-service
/// workload runs, for its per-layer figures only.
pub fn probe_session(ctx: &Ctx<'_>) -> Outcome {
    let plan = Plan {
        prefill: scaled(32, ctx.scale.min(1.0), VERIFY_EVERY),
        hits_per_round: scaled(8_000, ctx.scale.min(1.0), 4 * VERIFY_EVERY),
        rounds: 1,
        pings: 200,
        mixed_seconds: 3.0 * ctx.scale.min(1.0),
    };
    or_failed(session(ctx, &plan).map(|(out, _, _)| out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = mixed_schedule(9, 2.0, 128);
        let b = mixed_schedule(9, 2.0, 128);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.id, x.due_ns, x.spec_index, x.class),
                (y.id, y.due_ns, y.spec_index, y.class)
            );
        }
        let c = mixed_schedule(10, 2.0, 128);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.class != y.class || x.spec_index != y.spec_index));
    }

    #[test]
    fn schedule_deals_the_documented_mix_at_the_documented_rate() {
        // 12.5 s is ten whole decks of 85 units / 100 requests.
        let plan = mixed_schedule(1, 12.5, 128);
        assert_eq!(plan.len(), 1_000);
        let count = |class| plan.iter().filter(|p| p.class == class).count();
        assert_eq!(count(Class::Hit), 600);
        assert_eq!(count(Class::Cold), 250);
        assert_eq!(count(Class::Join), 150);
        // Ids are unique and dense; due times never go backwards.
        assert!(plan.iter().enumerate().all(|(i, p)| p.id == i as u64 + 1));
        assert!(plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(plan.last().unwrap().due_ns < 12_500_000_000);
    }

    #[test]
    fn a_join_is_due_with_its_cold_twin_and_cold_specs_are_never_prefilled() {
        let plan = mixed_schedule(3, 6.0, 64);
        let mut cold_seen = std::collections::HashSet::new();
        for (i, p) in plan.iter().enumerate() {
            match p.class {
                Class::Hit => assert!(p.spec_index < 64),
                Class::Cold => {
                    assert!(p.spec_index >= COLD_BASE);
                    assert!(cold_seen.insert(p.spec_index), "a cold spec repeats");
                }
                Class::Join => {
                    let twin = &plan[i - 1];
                    assert_eq!(twin.class, Class::Cold);
                    assert_eq!((twin.spec_index, twin.due_ns), (p.spec_index, p.due_ns));
                }
            }
        }
    }

    #[test]
    fn a_hit_is_checked_by_text_and_by_parse_alike() {
        let fp = "00000000000000aa";
        let frame = |id: u64, cached: bool, fp: &str| {
            format!(
                r#"{{"Result":{{"id":{id},"report_json":"{{\"cached\":true}}","fingerprint":"{fp}","cached":{cached},"deduped":false}}}}"#
            )
            .into_bytes()
        };
        assert_eq!(check_hit(&frame(7, true, fp), 7, fp, None), Ok(()));
        assert!(check_hit(&frame(8, true, fp), 7, fp, None)
            .unwrap_err()
            .contains("answers request 8"));
        // The embedded report's own text must not pass for the flag.
        assert!(check_hit(&frame(7, false, fp), 7, fp, None)
            .unwrap_err()
            .contains("not served from the cache"));
        assert!(check_hit(&frame(7, true, "00000000000000bb"), 7, fp, None)
            .unwrap_err()
            .contains("another spec"));
        // A verified hit is held to the report's bytes as well.
        let report = r#"{"cached":true}"#;
        assert_eq!(check_hit(&frame(7, true, fp), 7, fp, Some(report)), Ok(()));
        assert!(check_hit(&frame(7, true, fp), 7, fp, Some("{}"))
            .unwrap_err()
            .contains("differs from an in-process run_custom"));
        // Another field order reads the same once parsed.
        let reordered = format!(
            r#"{{"Result":{{"cached":true,"deduped":false,"fingerprint":"{fp}","id":7,"report_json":"{{}}"}}}}"#
        );
        assert_eq!(check_hit(reordered.as_bytes(), 7, fp, None), Ok(()));
        assert!(check_hit(br#""Pong""#, 7, fp, None)
            .unwrap_err()
            .contains("not a result"));
        assert!(check_hit(b"\xff", 7, fp, None).is_err());
    }

    #[test]
    fn lateness_is_charged_from_the_intended_time() {
        assert_eq!(lateness_ns(1_000, 1_250), 250);
        // Early by clock granularity is not negative lateness.
        assert_eq!(lateness_ns(1_000, 990), 0);
        // A stalled generator sends a burst late: each request is late by
        // its own distance from its own due time, so the latency taken
        // from `due` includes the stall for all of them.
        let due = [0, 10, 20, 30];
        let sent = [35, 36, 37, 38];
        let late: Vec<u64> = due
            .iter()
            .zip(sent)
            .map(|(d, s)| lateness_ns(*d, s))
            .collect();
        assert_eq!(late, vec![35, 26, 17, 8]);
    }

    #[test]
    fn specs_are_distinct_and_half_are_faulty() {
        let specs: Vec<WireSpec> = (0..64).map(|i| wire_spec(1, i)).collect();
        let interner = PatternInterner::default();
        let mut keys = std::collections::HashSet::new();
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.faults.len(), if i % 2 == 1 { 2 } else { 0 });
            let custom = s
                .to_custom(&interner)
                .expect("every generated spec is valid");
            assert!(keys.insert(custom.canonical()), "spec {i} repeats");
        }
        assert_eq!(wire_spec(1, 5).seed, wire_spec(1, 5).seed);
        assert_ne!(wire_spec(1, 5).seed, wire_spec(2, 5).seed);
    }
}
