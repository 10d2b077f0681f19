//! The traced run's in-process replay: each workload's exact batches
//! fed through each layer's public entry point, with a span recorded
//! around every call into a layer. Spans stay in memory and are written
//! out once, at the end, as a Chrome trace (`chrome://tracing`,
//! Perfetto).
//!
//! A batch runs as the service runs it, split at the layer boundaries:
//! `batch` is the root span of a request, and its children are
//! `trace.parse` (text) or `trace.decode` (binary), `trace.validate`
//! and `stream.detector`. A second pass feeds the same batches through
//! `Session` as a whole (`stream.session`); the session's self time is
//! that span minus the layers it contains. The wire a workload does not
//! use is measured too, on the same events rendered that way, as a
//! reference (`reference` spans).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tc_core::TreeClock;
use tc_orders::{HbEngine, PartialOrderKind, RunMetrics};
use tc_stream::{AnyDetector, ClockChoice, DetectorConfig, Session};
use tc_trace::wire::{self, WireMessage};
use tc_trace::{text_format, Event, SessionValidator, StreamInterner};

use crate::inputs::{ConnInputs, Wire, Workload};

/// Replay passes; every per-layer figure is the median over them.
const PASSES: usize = 3;

/// One recorded span.
struct Span {
    name: &'static str,
    id: u32,
    /// 0 for a root.
    parent: u32,
    /// The request (batch) the span belongs to.
    batch: u32,
    /// The connection whose batches are replayed.
    conn: u32,
    start: Instant,
    end: Instant,
}

/// The in-memory span store.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        (conn, batch): (usize, usize),
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            batch: batch as u32,
            conn: conn as u32,
            start,
            end,
        });
        id
    }

    /// Total time per span name.
    fn totals(&self) -> BTreeMap<&'static str, Duration> {
        let mut t = BTreeMap::new();
        for s in &self.spans {
            *t.entry(s.name).or_default() += s.end - s.start;
        }
        t
    }

    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let ts = (s.start - self.epoch).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\
                 \"dur\":{dur:.3},\"args\":{{\"span\":{},\"parent\":{},\"batch\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.conn,
                s.id,
                s.parent,
                s.batch,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One connection's batches, ready for replay.
struct Batches<'a> {
    inputs: &'a ConnInputs,
    /// Per batch: the text block of each session (text wires).
    text: Vec<Vec<String>>,
    /// Per batch: the encoded frame (or multi frame) without the
    /// trailing sync line.
    frames: Vec<Vec<u8>>,
    count: usize,
}

impl<'a> Batches<'a> {
    fn new(inputs: &'a ConnInputs, wire_kind: Wire) -> Batches<'a> {
        let count = inputs.sessions[0].period_batches();
        let session_text: Vec<Vec<String>> = inputs
            .sessions
            .iter()
            .map(|s| {
                if wire_kind == Wire::Text {
                    s.text_batches.clone()
                } else {
                    (0..count).map(|i| render_text(s.batch(i))).collect()
                }
            })
            .collect();
        let text = (0..count)
            .map(|i| session_text.iter().map(|t| t[i].clone()).collect())
            .collect();
        let frames = (0..count)
            .map(|i| {
                let groups: Vec<(u64, &[Event])> = inputs
                    .sessions
                    .iter()
                    .enumerate()
                    .map(|(s, input)| (s as u64 + 1, input.batch(i)))
                    .collect();
                if groups.len() == 1 {
                    wire::encode_frame(1, groups[0].1).expect("a batch fits one frame")
                } else {
                    wire::encode_multi_frame(&groups).expect("a round fits one frame")
                }
            })
            .collect();
        Batches {
            inputs,
            text,
            frames,
            count,
        }
    }

    fn events(&self) -> usize {
        self.count * self.inputs.sessions.len() * self.inputs.sessions[0].batch(0).len()
    }
}

/// Text lines for dense-id events (names `t<i>`, `l<i>`, `x<i>`).
fn render_text(events: &[Event]) -> String {
    let trace: tc_trace::Trace = events.iter().copied().collect();
    text_format::to_text(&trace)
}

fn hb_config() -> DetectorConfig {
    DetectorConfig::for_order(PartialOrderKind::Hb)
}

/// Per-session layer state of the split pipeline.
struct Pipeline {
    interners: Vec<StreamInterner>,
    validators: Vec<SessionValidator>,
    detectors: Vec<AnyDetector>,
}

impl Pipeline {
    fn new(sessions: usize, clock: ClockChoice) -> Pipeline {
        Pipeline {
            interners: (0..sessions).map(|_| StreamInterner::new()).collect(),
            validators: (0..sessions).map(|_| SessionValidator::new()).collect(),
            detectors: (0..sessions)
                .map(|_| AnyDetector::new(clock, hb_config()))
                .collect(),
        }
    }

    fn races(&self) -> Vec<u64> {
        self.detectors.iter().map(|d| d.report().total).collect()
    }
}

/// Parses one session's text block.
fn parse(interner: &mut StreamInterner, block: &str, out: &mut Vec<Event>) {
    for line in block.lines() {
        if let Some(e) = interner.parse_line(line).expect("rendered lines parse") {
            out.push(e);
        }
    }
}

/// Decodes one frame into per-session event lists (frame order).
fn decode(bytes: &[u8]) -> Vec<Vec<Event>> {
    match wire::try_message(bytes).expect("rendered frames decode") {
        Some((WireMessage::Single(f), _)) => vec![f.events],
        Some((WireMessage::Multi(fs), _)) => fs.into_iter().map(|f| f.events).collect(),
        None => unreachable!("a whole frame is buffered"),
    }
}

/// One pass of the split pipeline over every batch. With `tracer`,
/// spans are recorded around each layer; without, only the total is
/// timed (the untraced twin the overhead is measured against).
fn pipeline_pass(
    b: &Batches<'_>,
    conn: usize,
    text_wire: bool,
    mut tracer: Option<&mut Tracer>,
) -> (Duration, Vec<u64>) {
    let sessions = b.inputs.sessions.len();
    let mut p = Pipeline::new(sessions, ClockChoice::Tree);
    let mut events: Vec<Vec<Event>> = vec![Vec::new(); sessions];
    let begin = Instant::now();
    for i in 0..b.count {
        let t0 = tracer.as_ref().map(|_| Instant::now());
        if text_wire {
            for (s, ev) in events.iter_mut().enumerate() {
                ev.clear();
                parse(&mut p.interners[s], &b.text[i][s], ev);
            }
        } else {
            events = decode(&b.frames[i]);
        }
        let t1 = tracer.as_ref().map(|_| Instant::now());
        for (v, ev) in p.validators.iter_mut().zip(&events) {
            for e in ev {
                v.check(e).expect("generated events are valid");
            }
        }
        let t2 = tracer.as_ref().map(|_| Instant::now());
        for (d, ev) in p.detectors.iter_mut().zip(&events) {
            for e in ev {
                d.feed(e).expect("validated events feed");
            }
        }
        if let Some(tr) = tracer.as_deref_mut() {
            let t3 = Instant::now();
            let (t0, t1, t2) = (t0.unwrap(), t1.unwrap(), t2.unwrap());
            let root = tr.record("batch", 0, (conn, i), t0, t3);
            let first = if text_wire {
                "trace.parse"
            } else {
                "trace.decode"
            };
            tr.record(first, root, (conn, i), t0, t1);
            tr.record("trace.validate", root, (conn, i), t1, t2);
            tr.record("stream.detector", root, (conn, i), t2, t3);
        }
    }
    (begin.elapsed(), p.races())
}

/// The wire the workload does not use, timed on the same events.
fn reference_pass(b: &Batches<'_>, conn: usize, text_wire: bool, tracer: &mut Tracer) {
    let sessions = b.inputs.sessions.len();
    let mut interners: Vec<StreamInterner> = (0..sessions).map(|_| StreamInterner::new()).collect();
    let mut events = Vec::new();
    for i in 0..b.count {
        let t0 = Instant::now();
        if text_wire {
            std::hint::black_box(decode(&b.frames[i]));
            tracer.record("reference.trace.decode", 0, (conn, i), t0, Instant::now());
        } else {
            for (s, interner) in interners.iter_mut().enumerate() {
                events.clear();
                parse(interner, &b.text[i][s], &mut events);
                std::hint::black_box(&events);
            }
            tracer.record("reference.trace.parse", 0, (conn, i), t0, Instant::now());
        }
    }
}

/// The same events through each clock backend alone.
fn backend_pass(b: &Batches<'_>, conn: usize, clock: ClockChoice, tracer: &mut Tracer) -> Vec<u64> {
    let name = match clock {
        ClockChoice::Tree => "stream.detector.tree",
        ClockChoice::Vector => "stream.detector.vector",
        ClockChoice::Hybrid => "stream.detector.hybrid",
    };
    let mut p = Pipeline::new(b.inputs.sessions.len(), clock);
    for i in 0..b.count {
        let t0 = Instant::now();
        for (d, input) in p.detectors.iter_mut().zip(&b.inputs.sessions) {
            for e in input.batch(i) {
                d.feed(e).expect("valid events feed");
            }
        }
        tracer.record(name, 0, (conn, i), t0, Instant::now());
    }
    p.races()
}

/// Whole `Session`s fed the same batches the server gets (each batch
/// followed by `poll`, except fan-in, which synchronises with
/// `stats-all` and so never polls). Returns the sessions for the
/// checkpoint measurement.
fn session_pass(
    b: &Batches<'_>,
    conn: usize,
    wire_kind: Wire,
    tracer: &mut Tracer,
) -> Vec<Session> {
    let sessions = b.inputs.sessions.len();
    let mut ss: Vec<Session> = (0..sessions)
        .map(|s| Session::new(s as u64 + 1, ClockChoice::Tree, hb_config()))
        .collect();
    let mut out = String::new();
    for i in 0..b.count {
        let t0 = Instant::now();
        match wire_kind {
            Wire::Text => {
                for line in b.text[i][0].lines() {
                    ss[0].handle_line(line, &mut out);
                }
                ss[0].handle_line("poll", &mut out);
            }
            Wire::Frame => {
                ss[0].handle_frame(b.inputs.sessions[0].batch(i), &mut out);
                ss[0].handle_line("poll", &mut out);
            }
            Wire::Multi => {
                for (s, input) in ss.iter_mut().zip(&b.inputs.sessions) {
                    s.handle_frame(input.batch(i), &mut out);
                }
            }
        }
        tracer.record("stream.session", 0, (conn, i), t0, Instant::now());
        out.clear();
    }
    ss
}

/// Per-layer results of the replay, keyed by metric name.
pub struct Replay {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-batch in-process `Session` time, in microseconds (for the
    /// service overhead).
    pub session_batch_us: Vec<f64>,
    /// Chrome-trace JSON of the last pass.
    pub spans_json: String,
    /// Every replayed race total equals the batch detector's.
    pub races_ok: bool,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Replays every connection's batches `PASSES` times and reduces the
/// spans to per-layer metrics.
pub fn run(w: &Workload, inputs: &[ConnInputs]) -> Replay {
    let text_wire = w.wire == Wire::Text;
    let batches: Vec<Batches<'_>> = inputs.iter().map(|c| Batches::new(c, w.wire)).collect();
    let events: usize = batches.iter().map(Batches::events).sum();
    let reference: Vec<Vec<u64>> = inputs
        .iter()
        .map(|c| {
            c.sessions
                .iter()
                .map(|s| s.reference_races(&[s.period_batches()])[0])
                .collect()
        })
        .collect();

    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut overhead = Vec::new();
    let mut races_ok = true;
    let mut races_total = 0;
    let mut session_batch_us = Vec::new();
    let mut spans_json = String::new();
    for pass in 0..PASSES {
        let mut tracer = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        };
        let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
        races_total = 0;
        for (k, b) in batches.iter().enumerate() {
            // Alternate which of the twins runs first.
            let plain_first = pass % 2 == 0;
            if plain_first {
                untraced += pipeline_pass(b, k, text_wire, None).0;
            }
            let (spanned, races) = pipeline_pass(b, k, text_wire, Some(&mut tracer));
            if !plain_first {
                untraced += pipeline_pass(b, k, text_wire, None).0;
            }
            traced += spanned;
            races_ok &= races == reference[k];
            races_total += races.iter().sum::<u64>();
            reference_pass(b, k, text_wire, &mut tracer);
            for clock in [ClockChoice::Tree, ClockChoice::Vector, ClockChoice::Hybrid] {
                races_ok &= backend_pass(b, k, clock, &mut tracer) == reference[k];
            }
            let sessions = session_pass(b, k, w.wire, &mut tracer);
            races_ok &= sessions
                .iter()
                .map(|s| s.detector().report().total)
                .eq(reference[k].iter().copied());
            let (write_us, bytes) = checkpoint(&sessions);
            per_pass.entry("cp.us").or_default().push(write_us);
            per_pass.entry("cp.bytes").or_default().push(bytes);
        }
        overhead.push((traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0);
        for (name, total) in tracer.totals() {
            per_pass
                .entry(name)
                .or_default()
                .push(total.as_secs_f64() * 1e9 / events as f64);
        }
        if pass + 1 == PASSES {
            session_batch_us = tracer
                .spans
                .iter()
                .filter(|s| s.name == "stream.session")
                .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
                .collect();
            spans_json = tracer.chrome_json();
        }
    }
    // The checkpoint entries are per connection: sum them per pass.
    let conns = batches.len();
    let summed = |key: &str| -> f64 {
        let v = &per_pass[key];
        median(v.chunks(conns).map(|c| c.iter().sum()).collect())
    };
    let layer = |key: &str| -> f64 { per_pass.get(key).map_or(0.0, |v| median(v.clone())) };
    let (parse, decode) = if text_wire {
        (layer("trace.parse"), layer("reference.trace.decode"))
    } else {
        (layer("reference.trace.parse"), layer("trace.decode"))
    };
    let validate = layer("trace.validate");
    let detector = layer("stream.detector");
    let inside_session = if text_wire {
        layer("trace.parse") + validate + detector
    } else {
        validate + detector
    };
    let counts = clock_counts(inputs);
    let examined_per_changed = counts.op_examined as f64 / counts.op_changed.max(1) as f64;
    Replay {
        metrics: vec![
            ("trace.parse.ns_per_event", parse, "ns"),
            ("trace.decode.ns_per_event", decode, "ns"),
            ("trace.validate.ns_per_event", validate, "ns"),
            ("stream.detector.ns_per_event", detector, "ns"),
            (
                "stream.detector.ns_per_event.tree",
                layer("stream.detector.tree"),
                "ns",
            ),
            (
                "stream.detector.ns_per_event.vector",
                layer("stream.detector.vector"),
                "ns",
            ),
            (
                "stream.detector.ns_per_event.hybrid",
                layer("stream.detector.hybrid"),
                "ns",
            ),
            ("stream.detector.races", races_total as f64, "count"),
            (
                "stream.session.self_ns_per_event",
                layer("stream.session") - inside_session,
                "ns",
            ),
            ("core.clock.joins", counts.joins as f64, "count"),
            ("core.clock.copies", counts.copies as f64, "count"),
            (
                "core.clock.entries_examined",
                counts.op_examined as f64,
                "count",
            ),
            (
                "core.clock.entries_changed",
                counts.op_changed as f64,
                "count",
            ),
            (
                "core.clock.examined_per_changed",
                examined_per_changed,
                "ratio",
            ),
            ("stream.checkpoint.write_us", summed("cp.us"), "us"),
            ("stream.checkpoint.bytes", summed("cp.bytes"), "bytes"),
            ("trace.overhead_pct", median(overhead), "%"),
        ],
        session_batch_us,
        spans_json,
        races_ok,
    }
}

/// `Session::checkpoint` + `Checkpoint::write` of every session's end
/// state: total microseconds and bytes.
fn checkpoint(sessions: &[Session]) -> (f64, f64) {
    let mut bytes = 0;
    let start = Instant::now();
    for s in sessions {
        let mut buf = Vec::new();
        s.checkpoint()
            .write(&mut buf)
            .expect("writing to a Vec cannot fail");
        bytes += buf.len();
    }
    (start.elapsed().as_secs_f64() * 1e6, bytes as f64)
}

/// Exact clock work of `HbEngine::<TreeClock>` over every session's
/// trace period.
fn clock_counts(inputs: &[ConnInputs]) -> RunMetrics {
    let mut total = RunMetrics::new();
    for s in inputs.iter().flat_map(|c| &c.sessions) {
        total += HbEngine::<TreeClock>::run_counted(&s.trace);
    }
    total
}
