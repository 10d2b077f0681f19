//! `perfbench`: drives the release `tcr serve` binary over loopback
//! sockets and prints the benchmark's metrics (see `README.md`).
//!
//! ```text
//! perfbench --tcr PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--out-dir DIR] [--toy]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod drive;
mod inputs;
mod replay;
mod server;

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use drive::{stat_field, Conn, Paced, PacedLane, Saturated};
use inputs::{render_period, ConnInputs, Wire, Workload};
use server::{ServerProc, TICKS_PER_SECOND};

/// Slices each phase runs in. The phases alternate slice by slice, so a
/// slowdown of the host lasting a good part of a run hits some slices of
/// each phase rather than all of one; `events_per_s` and the latency
/// percentiles are medians over the slices.
const ROUNDS: usize = 6;
/// Times the whole set-up is repeated per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 15;
/// The paced generator has fallen behind its schedule when its median
/// lateness exceeds this share of the batch interval, or any send is
/// later than `MAX_LATENESS`. (Single late wake-ups of a few
/// milliseconds are scheduler noise that an idle sleep loop shows too;
/// they stay in the latency figures, timed from the due time.)
const MAX_MEDIAN_LATENESS_SHARE: f64 = 0.25;
const MAX_LATENESS: Duration = Duration::from_millis(100);

struct Args {
    tcr: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    toy: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let name = need("--workload")?;
    let toy = argv.iter().any(|a| a == "--toy");
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok(Args {
        tcr: PathBuf::from(need("--tcr")?),
        workload: if toy { workload.toy() } else { workload },
        seed: need("--seed")?.parse().map_err(|_| "invalid --seed")?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|_| "invalid --seconds")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        out_dir: value("--out-dir").map(PathBuf::from),
        toy,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.json());
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            std::process::exit(1);
        }
    }
}

/// One connection's share of a phase: its sessions, in input order.
struct Lane {
    conn: usize,
    ids: Vec<u64>,
}

/// Running servers with every session open.
struct Rig {
    servers: Vec<ServerProc>,
    conns: Vec<Conn>,
    /// Per input connection: the saturated phase's lane.
    saturated: Vec<Lane>,
    paced: Vec<Lane>,
    /// Cluster, traced: sessions for the paced phase via the owner.
    owner: Vec<Lane>,
}

/// Pipelines `count` opens on `conn` and returns the session ids.
fn open_sessions(conn: &mut Conn, count: usize) -> Result<Vec<u64>, String> {
    conn.send("open hb tc\n".repeat(count).as_bytes())?;
    (0..count)
        .map(|_| {
            let reply = conn.reply("open")?;
            reply
                .split_whitespace()
                .nth(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed open reply `{reply}`"))
        })
        .collect()
}

/// Opens sessions through cluster node 0 until `count` of them are
/// owned by node 1 (the others stay idle).
fn open_remote(conn: &mut Conn, count: usize) -> Result<Vec<u64>, String> {
    let mut ids = Vec::new();
    while ids.len() < count {
        let id = open_sessions(conn, 1)?[0];
        let ring = conn.request(&format!("ring {id}"))?;
        if ring.split_whitespace().nth(4) == Some("1") {
            ids.push(id);
        }
    }
    Ok(ids)
}

impl Rig {
    fn setup(w: &Workload, tcr: &std::path::Path, traced: bool) -> Result<Rig, String> {
        let servers = if w.cluster {
            ServerProc::cluster_pair(tcr)?
        } else {
            vec![ServerProc::single(tcr)?]
        };
        let addr = servers[0].addr;
        let mut rig = Rig {
            servers,
            conns: Vec::new(),
            saturated: Vec::new(),
            paced: Vec::new(),
            owner: Vec::new(),
        };
        if w.wire == Wire::Multi {
            // One connection per phase: `stats-all` covers every
            // session its connection opened.
            for phase in 0..2 {
                let mut conn = Conn::connect(addr)?;
                let lane = Lane {
                    conn: phase,
                    ids: open_sessions(&mut conn, w.sessions_per_conn)?,
                };
                rig.conns.push(conn);
                if phase == 0 {
                    rig.saturated.push(lane);
                } else {
                    rig.paced.push(lane);
                }
            }
            return Ok(rig);
        }
        let owner_phase = w.cluster && traced;
        for k in 0..w.conns {
            let mut conn = Conn::connect(addr)?;
            let wanted = 2 + usize::from(owner_phase);
            let ids = if w.cluster {
                open_remote(&mut conn, wanted)?
            } else {
                open_sessions(&mut conn, wanted)?
            };
            rig.conns.push(conn);
            let lane = |i: usize| Lane {
                conn: k,
                ids: vec![ids[i]],
            };
            rig.saturated.push(lane(0));
            rig.paced.push(lane(1));
            if owner_phase {
                rig.owner.push(lane(2));
            }
        }
        Ok(rig)
    }

    fn cpu_ticks(&self) -> u64 {
        self.servers.iter().map(ServerProc::cpu_ticks).sum()
    }

    fn peak_rss_mb(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| s.peak_rss_kb() as f64 / 1024.0)
            .sum()
    }
}

/// Requests and failures of a run, for `attempted`/`failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Every check of the correctness gate that ran, and whether each
    /// passed.
    checks: u64,
    mismatches: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// The gate for one session: `stats` must report `events` accepted,
/// none rejected, and the reference race total.
fn gate_stats(tally: &mut Tally, line: &str, events: u64, races: u64, who: &str) {
    let rejected = stat_field(line, "rejected").unwrap_or(u64::MAX);
    if rejected != u64::MAX {
        tally.failed += rejected;
    }
    tally.check(
        stat_field(line, "events") == Some(events)
            && rejected == 0
            && stat_field(line, "races") == Some(races),
        || format!("{who}: expected events={events} rejected=0 races={races} in `{line}`"),
    );
}

/// Checks every session of `lane` after `batches` batches each.
fn gate_lane(
    tally: &mut Tally,
    conn: &mut Conn,
    lane: &Lane,
    inputs: &ConnInputs,
    batches: usize,
    per_session: &[u64],
    phase: &str,
) -> Result<(), String> {
    let events = (batches * inputs.sessions[0].batch(0).len()) as u64;
    tally.attempted += 2 * lane.ids.len() as u64;
    // One request at a time: replies of different sessions may
    // overtake each other, and two replies to one segment would wait
    // out a delayed ACK (the server leaves Nagle on).
    for (s, id) in lane.ids.iter().enumerate() {
        conn.request(&format!("use {id}"))?;
        let line = conn.request("stats")?;
        gate_stats(
            tally,
            &line,
            events,
            per_session[s],
            &format!("{phase} session {id}"),
        );
    }
    Ok(())
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Nearest-rank percentile of unsorted samples (`f64::INFINITY` for
/// failed ones).
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Runs the saturated phase on every lane; returns the per-lane results.
fn run_saturated(
    rig: &mut Rig,
    w: &Workload,
    batches: &[Vec<Vec<u8>>],
    first: &[usize],
    duration: Duration,
) -> Result<Vec<Saturated>, String> {
    let barrier_cmd = if w.wire == Wire::Multi {
        "stats-all"
    } else {
        "stats"
    };
    let go = Barrier::new(rig.saturated.len());
    let lanes: Vec<usize> = rig.saturated.iter().map(|l| l.conn).collect();
    let mut conns: Vec<&mut Conn> = rig
        .conns
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| lanes.contains(i))
        .map(|(_, c)| c)
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(batches)
            .zip(first)
            .map(|((conn, b), &first)| {
                let go = &go;
                scope.spawn(move || {
                    drive::saturated(conn, b, first, w.window, duration, barrier_cmd, go)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// Runs `count` paced batches, from batch `first` on, on the
/// connections of `lanes`.
fn run_paced(
    conns: &mut [Conn],
    lanes: &[Lane],
    w: &Workload,
    batches: &[Vec<Vec<u8>>],
    first: usize,
    count: usize,
) -> Result<Vec<Paced>, String> {
    let used: Vec<usize> = lanes.iter().map(|l| l.conn).collect();
    let interval = 1.0 / w.paced_rate;
    let start = Instant::now() + Duration::from_millis(20);
    let n = lanes.len() as f64;
    let mut paced_lanes: Vec<PacedLane<'_>> = conns
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| used.contains(i))
        .map(|(_, c)| c)
        .zip(batches)
        .enumerate()
        .map(|(k, (conn, b))| PacedLane {
            conn,
            batches: b,
            first,
            // Spread the lanes' schedules evenly over one interval.
            start: start + Duration::from_secs_f64(interval * k as f64 / n),
        })
        .collect();
    drive::paced(&mut paced_lanes, w.paced_rate, count)
}

/// Renders one trace period of batches for every lane.
fn render_lanes(w: &Workload, lanes: &[Lane], inputs: &[ConnInputs]) -> Vec<Vec<Vec<u8>>> {
    lanes
        .iter()
        .zip(inputs)
        .map(|(lane, input)| render_period(w.wire, input, &lane.ids))
        .collect()
}

/// Binds each lane's connection to the lane's (single) session, so
/// text lines and `stats` go there.
fn bind(conns: &mut [Conn], lanes: &[Lane], tally: &mut Tally) -> Result<(), String> {
    for lane in lanes {
        if let [id] = lane.ids[..] {
            conns[lane.conn].request(&format!("use {id}"))?;
            tally.attempted += 1;
        }
    }
    Ok(())
}

/// The reference race totals of every lane's sessions after each of
/// `counts[k]` batches (`[k][j][s]`: lane, count, session), computed on
/// two threads.
fn references(inputs: &[ConnInputs], counts: &[Vec<usize>]) -> Vec<Vec<Vec<u64>>> {
    let jobs: Vec<(usize, usize)> = inputs
        .iter()
        .enumerate()
        .flat_map(|(k, c)| (0..c.sessions.len()).map(move |s| (k, s)))
        .collect();
    let run = |part: &[(usize, usize)]| -> Vec<Vec<u64>> {
        part.iter()
            .map(|&(k, s)| inputs[k].sessions[s].reference_races(&counts[k]))
            .collect()
    };
    let (first, second) = jobs.split_at(jobs.len() / 2);
    let totals: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let other = scope.spawn(|| run(first));
        let mine = run(second);
        let mut all = other.join().expect("reference thread");
        all.extend(mine);
        all
    });
    let mut out: Vec<Vec<Vec<u64>>> = inputs
        .iter()
        .zip(counts)
        .map(|(c, counts)| vec![vec![0; c.sessions.len()]; counts.len()])
        .collect();
    for (&(k, s), per_count) in jobs.iter().zip(totals) {
        for (j, total) in per_count.into_iter().enumerate() {
            out[k][j][s] = total;
        }
    }
    out
}

/// Paced-phase summary figures.
struct PacedStats {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    samples: usize,
    failed: usize,
    late_p50_us: f64,
    late_p99_us: f64,
    late_max_us: f64,
}

fn paced_stats(results: &[Paced]) -> PacedStats {
    let latency: Vec<f64> = results.iter().flat_map(|p| p.latency_us.clone()).collect();
    let late: Vec<f64> = results.iter().flat_map(|p| p.lateness_us.clone()).collect();
    PacedStats {
        p50_us: percentile(&latency, 50.0),
        p90_us: percentile(&latency, 90.0),
        p99_us: percentile(&latency, 99.0),
        samples: latency.len(),
        failed: results.iter().map(|p| p.failed).sum(),
        late_p50_us: percentile(&late, 50.0),
        late_p99_us: percentile(&late, 99.0),
        late_max_us: late.iter().copied().fold(0.0, f64::max),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} toy={}",
        w.name, args.seed, args.seconds, args.trace as u8, args.toy
    );
    let inputs: Vec<ConnInputs> = (0..w.conns).map(|k| w.inputs(args.seed, k)).collect();
    let mut tally = Tally::default();

    // ---- set-up: spawn, connect, open every session ----
    let repeats = if args.toy { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..repeats {
        // The previous set-up's servers stop before the next starts.
        drop(rig.take());
        let t = Instant::now();
        let r = Rig::setup(w, &args.tcr, args.trace)?;
        setup_s.push(t.elapsed().as_secs_f64());
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let sessions_opened: usize = rig
        .saturated
        .iter()
        .chain(&rig.paced)
        .chain(&rig.owner)
        .map(|l| l.ids.len())
        .sum();
    tally.attempted += sessions_opened as u64;

    // ---- the two phases, in alternating slices ----
    let sat_batches = render_lanes(w, &rig.saturated, &inputs);
    let paced_batches = render_lanes(w, &rig.paced, &inputs);
    let sat_slice = Duration::from_secs_f64(args.seconds * w.saturated_share / ROUNDS as f64);
    let paced_seconds = args.seconds * (1.0 - w.saturated_share) / ROUNDS as f64;
    let paced_slice = ((paced_seconds * w.paced_rate) as usize).max(1);
    let paced_count = paced_slice * ROUNDS;
    let mut sat_sent = vec![0usize; rig.saturated.len()];
    let mut barriers = vec![String::new(); rig.saturated.len()];
    let mut rates = Vec::new();
    let (mut sat_ticks, mut sat_events, mut paced_ticks) = (0, 0u64, 0);
    let (mut sat_steal_s, mut sat_wall_s) = (0.0, 0.0);
    let mut paced: Vec<Paced> = Vec::new();
    let (mut slice_p50_us, mut slice_p90_us) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        bind(&mut rig.conns, &rig.saturated, &mut tally)?;
        let ticks = rig.cpu_ticks();
        let steal0 = server::steal_ticks();
        let sat = run_saturated(&mut rig, w, &sat_batches, &sat_sent, sat_slice)?;
        sat_ticks += rig.cpu_ticks() - ticks;
        let steal = (server::steal_ticks() - steal0) as f64 / TICKS_PER_SECOND;
        let start = sat.iter().map(|s| s.start).min().expect("one lane");
        let done = sat.iter().map(|s| s.done).max().expect("one lane");
        let events: u64 = sat
            .iter()
            .map(|s| (s.sent * w.events_per_batch()) as u64)
            .sum();
        rates.push(events as f64 / (done - start).as_secs_f64());
        sat_steal_s += steal;
        sat_wall_s += (done - start).as_secs_f64();
        sat_events += events;
        for (k, s) in sat.into_iter().enumerate() {
            sat_sent[k] += s.sent;
            tally.attempted += s.sent as u64 + 1;
            tally.failed += s.failed as u64;
            // Every barrier accounts for every event sent so far.
            let expected = (sat_sent[k] * w.events_per_batch()) as u64;
            tally.check(
                stat_field(&s.barrier, "events") == Some(expected)
                    && stat_field(&s.barrier, "rejected") == Some(0),
                || {
                    format!(
                        "saturated barrier: expected events={expected} in `{}`",
                        s.barrier
                    )
                },
            );
            barriers[k] = s.barrier;
        }

        bind(&mut rig.conns, &rig.paced, &mut tally)?;
        let ticks = rig.cpu_ticks();
        let slice = run_paced(
            &mut rig.conns,
            &rig.paced,
            w,
            &paced_batches,
            round * paced_slice,
            paced_slice,
        )?;
        paced_ticks += rig.cpu_ticks() - ticks;
        let stats = paced_stats(&slice);
        slice_p50_us.push(stats.p50_us);
        slice_p90_us.push(stats.p90_us);
        if paced.is_empty() {
            paced = slice;
        } else {
            for (all, p) in paced.iter_mut().zip(slice) {
                all.latency_us.extend(p.latency_us);
                all.lateness_us.extend(p.lateness_us);
                all.failed += p.failed;
            }
        }
    }
    drop((sat_batches, paced_batches));
    let events_per_s = median(&rates);
    let cpu_s = sat_ticks as f64 / TICKS_PER_SECOND;
    let paced_cpu_s = paced_ticks as f64 / TICKS_PER_SECOND;
    let ps = paced_stats(&paced);
    tally.attempted += ps.samples as u64;
    tally.failed += ps.failed as u64;

    // ---- correctness gate ----
    let counts: Vec<Vec<usize>> = sat_sent.iter().map(|&n| vec![n, paced_count]).collect();
    let refs = references(&inputs, &counts);
    for (k, &sent) in sat_sent.iter().enumerate() {
        if w.wire == Wire::Multi {
            let conn = &mut rig.conns[rig.saturated[k].conn];
            gate_lane(
                &mut tally,
                conn,
                &rig.saturated[k],
                &inputs[k],
                sent,
                &refs[k][0],
                "saturated",
            )?;
        } else {
            let events = (sent * w.events_per_batch()) as u64;
            let races: u64 = refs[k][0].iter().sum();
            gate_stats(&mut tally, &barriers[k], events, races, "saturated session");
        }
    }
    for (k, lane) in rig.paced.iter().enumerate() {
        let conn = &mut rig.conns[lane.conn];
        gate_lane(
            &mut tally,
            conn,
            lane,
            &inputs[k],
            paced_count,
            &refs[k][1],
            "paced",
        )?;
    }
    let peak_rss_mb = rig.peak_rss_mb();

    let interval_us = 1e6 / w.paced_rate;
    let behind = ps.late_p50_us > MAX_MEDIAN_LATENESS_SHARE * interval_us
        || ps.late_max_us > MAX_LATENESS.as_secs_f64() * 1e6;
    // The host's stolen CPU over the saturated slices, as a share of
    // the machine's CPU time: high values explain a slow run.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    println!(
        "# saturated: events={sat_events} events_per_s={events_per_s:.0} (median of {:?}) \
         server_cpu_s={cpu_s:.2} host_steal={:.1}% of {cpus} CPUs",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        100.0 * sat_steal_s / (sat_wall_s * cpus)
    );
    let beyond = |p: f64| ps.samples - (ps.samples as f64 * p).ceil() as usize;
    println!(
        "# paced: rate={}/s per connection samples={} p50_us={:.1} p90_us={:.1} (beyond: {}) \
         p99_us={:.1} (beyond: {}) failed={} server_cpu_s={paced_cpu_s:.2}; per slice: \
         p50_us={slice_p50_us:.1?} p90_us={slice_p90_us:.1?}",
        w.paced_rate,
        ps.samples,
        ps.p50_us,
        ps.p90_us,
        beyond(0.9),
        ps.p99_us,
        beyond(0.99),
        ps.failed
    );
    println!(
        "# generator lateness: p50_us={:.1} p99_us={:.1} max_us={:.1} interval_us={interval_us:.0} \
         fell_behind={behind}",
        ps.late_p50_us, ps.late_p99_us, ps.late_max_us
    );
    println!(
        "# setup_s: {:?}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        metrics.push((name.to_owned(), value, unit.to_owned()));
    };
    if args.trace {
        traced_metrics(args, &inputs, &mut rig, &ps, &mut tally, &mut push)?;
    } else {
        push("events_per_s", events_per_s, "1/s");
        push("batch_latency_p50_ms", median(&slice_p50_us) / 1e3, "ms");
        push("batch_latency_p90_ms", median(&slice_p90_us) / 1e3, "ms");
        push("setup_s", median(&setup_s), "s");
        push(
            "server_cpu_s_per_mevent",
            cpu_s / (sat_events as f64 / 1e6),
            "s",
        );
        push("server_peak_rss_mb", peak_rss_mb, "MB");
    }
    drop(rig);

    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "# failed_share={failed_share} (failed={} attempted={})",
        tally.failed, tally.attempted
    );
    println!(
        "# correctness gate: {} checks, {} mismatches",
        tally.checks,
        tally.mismatches.len()
    );
    for m in &tally.mismatches {
        println!("# MISMATCH {m}");
    }
    if behind {
        println!("# INVALID: the paced generator fell behind its schedule");
    }
    Ok(Outcome {
        correct: tally.mismatches.is_empty() && tally.checks > 0 && !behind,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Reads `name{labels...}` from a `metrics` exposition, where every
/// given label must appear.
fn series(text: &str, name: &str, labels: &[&str]) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(key, _)| {
            let base = key.split('{').next().unwrap_or("");
            base == name && labels.iter().all(|lab| key.contains(lab))
        })
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}

/// The traced run: scrapes, the cluster's owner-gateway phase, and the
/// in-process layer replay.
fn traced_metrics(
    args: &Args,
    inputs: &[ConnInputs],
    rig: &mut Rig,
    paced_main: &PacedStats,
    tally: &mut Tally,
    push: &mut impl FnMut(&str, f64, &str),
) -> Result<(), String> {
    let w = &args.workload;
    let mut scrapes = vec![rig.conns[0].scrape()?];
    let mut forward_overhead_us = 0.0;
    if w.cluster {
        // The same batches through the owner itself: reconnect to node
        // 1 (the connection budget is two) and replay the paced phase.
        rig.conns.clear();
        for _ in 0..w.conns {
            rig.conns.push(Conn::connect(rig.servers[1].addr)?);
        }
        scrapes.push(rig.conns[0].scrape()?);
        let lanes: Vec<Lane> = rig
            .owner
            .iter()
            .enumerate()
            .map(|(k, l)| Lane {
                conn: k,
                ids: l.ids.clone(),
            })
            .collect();
        bind(&mut rig.conns, &lanes, tally)?;
        let batches = render_lanes(w, &lanes, inputs);
        let count = paced_main.samples / lanes.len();
        let owner = paced_stats(&run_paced(&mut rig.conns, &lanes, w, &batches, 0, count)?);
        tally.attempted += owner.samples as u64;
        tally.failed += owner.failed as u64;
        let refs = references(inputs, &vec![vec![count]; lanes.len()]);
        for (k, lane) in lanes.iter().enumerate() {
            gate_lane(
                tally,
                &mut rig.conns[k],
                lane,
                &inputs[k],
                count,
                &refs[k][0],
                "owner",
            )?;
        }
        forward_overhead_us = paced_main.p50_us - owner.p50_us;
        println!(
            "# owner-gateway paced: p50_us={:.1} p99_us={:.1} samples={}",
            owner.p50_us, owner.p99_us, owner.samples
        );
    }
    let scrape = |name: &str, labels: &[&str]| -> f64 {
        scrapes
            .iter()
            .map(|s| series(s, name, labels))
            .fold(0.0, |a, b| a + b)
    };
    let wire_label = match w.wire {
        Wire::Text => "wire=\"text\"",
        Wire::Frame => "wire=\"frame\"",
        Wire::Multi => "wire=\"multi\"",
    };

    let replay = replay::run(w, inputs);
    tally.check(replay.races_ok, || {
        "in-process replay race totals differ from HbRaceDetector".to_owned()
    });
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-seed{}.json", w.name, args.seed));
        std::fs::write(&path, &replay.spans_json)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans: {}", path.display());
    }
    for (name, value, unit) in &replay.metrics {
        push(name, *value, unit);
    }
    push(
        "stream.service.batch_overhead_us",
        paced_main.p50_us - median(&replay.session_batch_us),
        "us",
    );
    // A single node exposes the service's series, cluster nodes the
    // `tc_cluster_*` counters.
    type Series<'a> = (&'a str, &'a str, &'a [&'a str], &'a str);
    let handle_labels = [wire_label, "quantile=\"0.5\""];
    let series: Vec<Series<'_>> = if w.cluster {
        vec![
            (
                "cluster.forwards",
                "tc_cluster_forwards_total",
                &[],
                "count",
            ),
            (
                "cluster.repl_payloads",
                "tc_cluster_repl_payloads_total",
                &[],
                "count",
            ),
            ("cluster.deltas", "tc_cluster_deltas_total", &[], "count"),
            (
                "cluster.delta_bytes",
                "tc_cluster_delta_bytes_total",
                &[],
                "bytes",
            ),
        ]
    } else {
        vec![
            (
                "stream.service.reply_p50_us",
                "tc_reply_us",
                &["quantile=\"0.5\""],
                "us",
            ),
            (
                "stream.service.reply_p99_us",
                "tc_reply_us",
                &["quantile=\"0.99\""],
                "us",
            ),
            (
                "stream.service.handle_p50_us",
                "tc_ingest_handle_us",
                &handle_labels,
                "us",
            ),
            (
                "stream.service.queue_depth_high_water",
                "tc_queue_depth_high_water",
                &[],
                "count",
            ),
        ]
    };
    for (metric, name, labels, unit) in series {
        push(metric, scrape(name, labels), unit);
    }
    if w.cluster {
        push("cluster.forward_overhead_us", forward_overhead_us, "us");
    }
    push("gen.paced_lateness_p99_us", paced_main.late_p99_us, "us");
    Ok(())
}
