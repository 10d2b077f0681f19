//! The four workloads and the seeded inputs they send.
//!
//! Every session streams one generated trace *period* over and over.
//! A period is cut where no lock is held, so the period followed by
//! itself is again a well-formed trace: the server never rejects an
//! event however long a phase runs, and the reference race total of a
//! session is simply `HbRaceDetector::<TreeClock>` fed the same cycle.
//! Every period of a workload has the same length, so one connection's
//! batches repeat with the period of its sessions.

use tc_analysis::HbRaceDetector;
use tc_core::TreeClock;
use tc_trace::gen::WorkloadSpec;
use tc_trace::{text_format, wire, Event, Op, Trace};

/// How a workload's batches travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Text event lines; each batch ends in `poll`.
    Text,
    /// One `0xF7` frame per batch, followed by `poll`.
    Frame,
    /// One `0xF6` frame carrying a slice for every session of the
    /// connection, followed by `stats-all`.
    Multi,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub wire: Wire,
    /// Two `tcr serve --cluster` nodes instead of one `tcr serve`.
    pub cluster: bool,
    /// Connections that drive a phase at the same time (one thread
    /// each).
    pub conns: usize,
    /// Sessions behind each connection.
    pub sessions_per_conn: usize,
    /// Generator shape of every session's trace.
    pub threads: u32,
    pub locks: u32,
    pub vars: u32,
    pub sync_ratio: f64,
    pub shared_fraction: f64,
    /// Events of one session's trace period (a multiple of
    /// `batch_events`).
    pub period_events: usize,
    /// Events each session receives per batch.
    pub batch_events: usize,
    /// Saturated phase: unacknowledged batches per connection.
    pub window: usize,
    /// Share of the run's measured seconds that the saturated phase
    /// gets; the paced phase gets the rest.
    pub saturated_share: f64,
    /// Paced phase: batches per second, per connection.
    pub paced_rate: f64,
}

impl Workload {
    /// Every workload the harness runs: the three of `BENCHMARK.json`,
    /// then `cluster-forward-2n` (see the README for why it is left out).
    pub fn all() -> Vec<Workload> {
        let eight = Workload {
            name: "text-8t",
            wire: Wire::Text,
            cluster: false,
            conns: 2,
            sessions_per_conn: 1,
            // The service-shaped trace of `crates/bench/src/ingest.rs`.
            threads: 8,
            locks: 4,
            vars: 64,
            sync_ratio: 0.1,
            shared_fraction: 0.5,
            period_events: 1 << 16,
            batch_events: 64,
            window: 16,
            saturated_share: 0.3,
            paced_rate: 200.0,
        };
        vec![
            eight.clone(),
            Workload {
                name: "binary-fanin-512",
                wire: Wire::Multi,
                conns: 1,
                sessions_per_conn: 512,
                period_events: 1024,
                batch_events: 8,
                window: 4,
                // Every paced batch costs 1024 queue hops (a frame and a
                // `stats-all` fold per session); at 60 batches/s a stall
                // can already tip the open loop into a growing backlog.
                saturated_share: 0.4,
                paced_rate: 30.0,
                ..eight.clone()
            },
            Workload {
                name: "binary-wide-256t",
                wire: Wire::Frame,
                threads: 256,
                locks: 32,
                vars: 1024,
                sync_ratio: 0.15,
                shared_fraction: 0.3,
                period_events: 1 << 17,
                batch_events: 512,
                window: 8,
                saturated_share: 0.5,
                paced_rate: 100.0,
                ..eight.clone()
            },
            Workload {
                name: "cluster-forward-2n",
                wire: Wire::Frame,
                cluster: true,
                batch_events: 512,
                window: 4,
                paced_rate: 100.0,
                ..eight
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The toy scale of the harness self-check: same shapes, a few
    /// hundred events per session.
    pub fn toy(mut self) -> Workload {
        self.period_events = self.batch_events * 16;
        self.sessions_per_conn = self.sessions_per_conn.min(16);
        self
    }

    /// Events each connection sends per batch.
    pub fn events_per_batch(&self) -> usize {
        self.batch_events * self.sessions_per_conn
    }

    /// Generates the inputs of connection `conn`.
    pub fn inputs(&self, seed: u64, conn: usize) -> ConnInputs {
        let sessions = (0..self.sessions_per_conn)
            .map(|s| {
                let spec = WorkloadSpec {
                    threads: self.threads,
                    locks: self.locks,
                    vars: self.vars,
                    events: self.period_events,
                    sync_ratio: self.sync_ratio,
                    shared_fraction: self.shared_fraction,
                    seed: mix(seed, (conn * self.sessions_per_conn + s) as u64),
                    ..WorkloadSpec::default()
                };
                SessionInput::new(
                    &spec.generate(),
                    self.period_events,
                    self.batch_events,
                    self.wire == Wire::Text,
                )
            })
            .collect();
        ConnInputs { sessions }
    }
}

/// A well-mixed per-session seed (splitmix64 of the pair).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of one connection.
pub struct ConnInputs {
    pub sessions: Vec<SessionInput>,
}

/// One session's trace period and its pre-rendered text.
pub struct SessionInput {
    /// The period as the server sees it: dense ids for binary wires;
    /// for text, the ids the session's interner assigns (the rendered
    /// text parsed back).
    pub trace: Trace,
    /// Text wire: one rendered block of event lines per batch.
    pub text_batches: Vec<String>,
    batch_events: usize,
}

impl SessionInput {
    fn new(generated: &Trace, period: usize, batch_events: usize, text: bool) -> SessionInput {
        let events = generated.events();
        let cut = lock_free_cut(events, period);
        // Pad with repeats of the first event (a thread-private write)
        // up to the exact period length.
        let trace: Trace = events[..cut]
            .iter()
            .chain(std::iter::repeat_n(&events[0], period - cut))
            .copied()
            .collect();
        if !text {
            return SessionInput {
                trace,
                text_batches: Vec::new(),
                batch_events,
            };
        }
        let rendered = text_format::to_text(&trace);
        let lines: Vec<&str> = rendered.lines().collect();
        let text_batches = lines
            .chunks(batch_events)
            .map(|chunk| {
                let mut block = chunk.join("\n");
                block.push('\n');
                block
            })
            .collect();
        let trace = text_format::parse_text(&rendered).expect("rendered traces parse back");
        SessionInput {
            trace,
            text_batches,
            batch_events,
        }
    }

    /// Batches in one period.
    pub fn period_batches(&self) -> usize {
        self.trace.len() / self.batch_events
    }

    /// The events of batch `i` (cyclic).
    pub fn batch(&self, i: usize) -> &[Event] {
        let start = (i % self.period_batches()) * self.batch_events;
        &self.trace.events()[start..start + self.batch_events]
    }

    /// The race totals `HbRaceDetector::<TreeClock>` reports after the
    /// first `counts[j]` batches of the cycle, for each `j`.
    pub fn reference_races(&self, counts: &[usize]) -> Vec<u64> {
        let mut detector = HbRaceDetector::<TreeClock>::new(&self.trace);
        let mut totals = vec![0; counts.len()];
        let last = counts.iter().copied().max().unwrap_or(0);
        for i in 0..=last {
            for (j, &c) in counts.iter().enumerate() {
                if c == i {
                    totals[j] = detector.report().total;
                }
            }
            if i < last {
                for e in self.batch(i) {
                    detector.process(e);
                }
            }
        }
        totals
    }
}

/// The longest prefix of `events`, at most `limit` long, that holds no
/// lock at its end.
fn lock_free_cut(events: &[Event], limit: usize) -> usize {
    let mut held = 0i64;
    let mut best = 0;
    for (i, e) in events.iter().take(limit).enumerate() {
        match e.op {
            Op::Acquire(_) => held += 1,
            Op::Release(_) => held -= 1,
            _ => {}
        }
        if held == 0 {
            best = i + 1;
        }
    }
    best
}

/// Renders the bytes of batch `i` of one connection, addressed to the
/// connection's session ids (`ids[s]` streams `inputs.sessions[s]`).
pub fn render_batch(wire: Wire, inputs: &ConnInputs, ids: &[u64], i: usize) -> Vec<u8> {
    match wire {
        Wire::Text => {
            let s = &inputs.sessions[0];
            let mut bytes = s.text_batches[i % s.period_batches()].clone().into_bytes();
            bytes.extend_from_slice(b"poll\n");
            bytes
        }
        Wire::Frame => {
            let mut bytes = wire::encode_frame(ids[0], inputs.sessions[0].batch(i))
                .expect("a batch fits one frame");
            bytes.extend_from_slice(b"poll\n");
            bytes
        }
        Wire::Multi => {
            let groups: Vec<(u64, &[Event])> = ids
                .iter()
                .zip(&inputs.sessions)
                .map(|(&id, s)| (id, s.batch(i)))
                .collect();
            let mut bytes = wire::encode_multi_frame(&groups).expect("a round fits one frame");
            bytes.extend_from_slice(b"stats-all\n");
            bytes
        }
    }
}

/// Renders one period of batches (the phase replays them cyclically).
pub fn render_period(wire: Wire, inputs: &ConnInputs, ids: &[u64]) -> Vec<Vec<u8>> {
    let period = inputs.sessions[0].period_batches();
    (0..period)
        .map(|i| render_batch(wire, inputs, ids, i))
        .collect()
}
