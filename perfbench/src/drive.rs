//! The generator: loopback connections that drive the two phases.
//!
//! The saturated phase runs one thread per connection, each both
//! sending and reading (blocking reads with a timeout); the paced phase
//! drives every connection from one thread. The generator never
//! needs more threads than connections.

use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long a request may go unanswered before it counts as failed
/// and the connection as dropped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Asks the kernel to acknowledge received data at once instead of
/// delaying the ACK (Linux `TCP_QUICKACK`, which lapses by itself, so it
/// is renewed after every read). The server leaves Nagle on: without
/// this, a reply written while the previous one is still unacknowledged
/// waits for the client's next batch, one paced interval later, in some
/// runs and not in others.
fn quick_ack(stream: &TcpStream) {
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;
    let on: c_int = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the
    // call; `value` points to a live `c_int` and `len` is its size.
    // A failure only leaves delayed ACKs on, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        );
    }
}

/// How long before a paced send the generator stops sleeping and
/// polls, and the longest it sleeps at a time.
const SPIN_BEFORE_DUE: Duration = Duration::from_millis(1);
const MAX_SLEEP: Duration = Duration::from_millis(50);

/// Sleeps until one of the sockets `fds` is readable or `timeout`
/// passes (Linux `ppoll`, for its nanosecond timeout). An error or a
/// signal only ends the wait early, which the caller's loop absorbs.
fn wait_readable(fds: &[c_int], timeout: Duration) {
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: i16 = 1;
    let mut polled: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `polled` holds `polled.len()` initialised entries and
    // `timeout` is a live timespec; a null signal mask leaves the mask
    // as it is.
    unsafe {
        ppoll(
            polled.as_mut_ptr(),
            polled.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        );
    }
}

/// One client connection with its own line buffer.
pub struct Conn {
    stream: TcpStream,
    /// Received bytes; `buf[pos..]` is still unread.
    buf: Vec<u8>,
    pos: usize,
    /// `err` lines read since the last acknowledgement.
    errs: u32,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            pos: 0,
            errs: 0,
        })
    }

    /// Writes all of `bytes`, riding out `WouldBlock` on a
    /// nonblocking socket.
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err("send: connection closed".to_owned()),
                Ok(n) => rest = &rest[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    std::hint::spin_loop();
                }
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        self.stream.set_nonblocking(on).map_err(|e| e.to_string())
    }

    /// The next acknowledgement if it is already buffered or readable
    /// without waiting (nonblocking sockets), with the count of `err`
    /// lines before it.
    fn try_ack(&mut self) -> Result<Option<u32>, String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            while let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = &self.buf[self.pos..self.pos + nl];
                let (ok, err) = (line.starts_with(b"ok"), line.starts_with(b"err"));
                self.pos += nl + 1;
                if ok {
                    return Ok(Some(std::mem::take(&mut self.errs)));
                }
                self.errs += u32::from(err);
            }
            self.buf.drain(..self.pos);
            self.pos = 0;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => {
                    quick_ack(&self.stream);
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// The byte range of the next reply line (without its newline) in
    /// `buf`, or `None` once `deadline` passes first.
    fn next_line(&mut self, deadline: Instant) -> Result<Option<(usize, usize)>, String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = (self.pos, self.pos + nl);
                self.pos += nl + 1;
                return Ok(Some(line));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Everything before `pos` has been consumed.
            self.buf.drain(..self.pos);
            self.pos = 0;
            let wait = (deadline - now).max(Duration::from_micros(1));
            self.stream
                .set_read_timeout(Some(wait))
                .map_err(|e| e.to_string())?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(n) => {
                    quick_ack(&self.stream);
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// The next reply line, or `None` once `deadline` passes first.
    fn line_until(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        Ok(self
            .next_line(deadline)?
            .map(|(a, b)| String::from_utf8_lossy(&self.buf[a..b]).into_owned()))
    }

    /// The next reply line within [`REPLY_TIMEOUT`].
    pub fn line(&mut self) -> Result<String, String> {
        self.line_until(Instant::now() + REPLY_TIMEOUT)?
            .ok_or_else(|| "timed out waiting for a reply".to_owned())
    }

    /// Sends one command line and returns its `ok` reply (race lines
    /// are skipped; an `err` reply is an error).
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(format!("{line}\n").as_bytes())?;
        self.reply(line)
    }

    /// Reads the `ok` line answering `what`.
    pub fn reply(&mut self, what: &str) -> Result<String, String> {
        loop {
            let line = self.line()?;
            if line.starts_with("ok") {
                return Ok(line);
            }
            if line.starts_with("err") {
                return Err(format!("`{what}` got `{line}`"));
            }
        }
    }

    /// Reads through the next acknowledgement (`ok ...`), returning
    /// how many `err` lines preceded it; `None` when `deadline` passed.
    fn ack_until(&mut self, deadline: Instant) -> Result<Option<u32>, String> {
        while let Some((a, b)) = self.next_line(deadline)? {
            let line = &self.buf[a..b];
            if line.starts_with(b"ok") {
                return Ok(Some(std::mem::take(&mut self.errs)));
            }
            if line.starts_with(b"err") {
                self.errs += 1;
            }
        }
        Ok(None)
    }

    /// Scrapes the `metrics` exposition (through `# EOF`).
    pub fn scrape(&mut self) -> Result<String, String> {
        self.send(b"metrics\n")?;
        let mut text = String::new();
        loop {
            let line = self.line()?;
            let done = line == "# EOF";
            text.push_str(&line);
            text.push('\n');
            if done {
                return Ok(text);
            }
        }
    }
}

/// Parses `key=value` fields of a `stats` reply.
pub fn stat_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// What one connection did in the saturated phase.
pub struct Saturated {
    pub start: Instant,
    pub done: Instant,
    pub sent: usize,
    pub failed: usize,
    /// The barrier's reply (`stats` or `stats-all`).
    pub barrier: String,
}

/// The closed loop: starting at batch `first`, keeps `window` batches
/// unacknowledged until `duration` has passed, then sends `barrier` and
/// waits for it. The phase runs from the first byte to the barrier's
/// reply.
pub fn saturated(
    conn: &mut Conn,
    batches: &[Vec<u8>],
    first: usize,
    window: usize,
    duration: Duration,
    barrier: &str,
    go: &Barrier,
) -> Result<Saturated, String> {
    go.wait();
    let start = Instant::now();
    let deadline = start + duration;
    let (mut sent, mut acked, mut failed) = (0usize, 0usize, 0usize);
    loop {
        while sent - acked < window && Instant::now() < deadline {
            conn.send(&batches[(first + sent) % batches.len()])?;
            sent += 1;
        }
        if sent == acked {
            break;
        }
        match conn.ack_until(Instant::now() + REPLY_TIMEOUT)? {
            Some(errs) => {
                acked += 1;
                failed += usize::from(errs > 0);
            }
            None => return Err(format!("{} batch(es) unacknowledged", sent - acked)),
        }
    }
    let barrier = conn.request(barrier)?;
    Ok(Saturated {
        start,
        done: Instant::now(),
        sent,
        failed,
        barrier,
    })
}

/// What one connection did in the paced phase.
pub struct Paced {
    /// Due time to acknowledgement, per batch, in microseconds;
    /// `f64::INFINITY` for a failed batch.
    pub latency_us: Vec<f64>,
    /// Send time minus due time, per batch, in microseconds.
    pub lateness_us: Vec<f64>,
    pub failed: usize,
}

/// One connection's schedule in the paced phase.
pub struct PacedLane<'a> {
    pub conn: &'a mut Conn,
    pub batches: &'a [Vec<u8>],
    /// The first batch to send.
    pub first: usize,
    /// When it is due.
    pub start: Instant,
}

/// The open loop: on every lane, the `i`-th batch sent is due at
/// `start + i / rate`, is sent then whatever the acknowledgements are
/// doing, and is timed from when it was due to its acknowledgement.
///
/// One thread drives every lane. Between sends it sleeps until an
/// awaited reply is readable, so it does not take a CPU from the
/// service while a batch is being analysed; over the last
/// [`SPIN_BEFORE_DUE`] before a send it polls instead, because on a
/// small VM a sleeping thread's wake-up can come late once the virtual
/// CPUs idle, which would time the generator, not the service.
pub fn paced(lanes: &mut [PacedLane<'_>], rate: f64, count: usize) -> Result<Vec<Paced>, String> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut out: Vec<Paced> = lanes
        .iter()
        .map(|_| Paced {
            latency_us: vec![f64::INFINITY; count],
            lateness_us: Vec::with_capacity(count),
            failed: 0,
        })
        .collect();
    let mut sent = vec![0usize; lanes.len()];
    let mut acked = vec![0usize; lanes.len()];
    for lane in lanes.iter_mut() {
        lane.conn.set_nonblocking(true)?;
    }
    let mut last_progress = Instant::now();
    while acked.iter().any(|&a| a < count) {
        let now = Instant::now();
        for (k, lane) in lanes.iter_mut().enumerate() {
            let due = |i: usize| lane.start + interval * i as u32;
            if sent[k] < count && now >= due(sent[k]) {
                out[k]
                    .lateness_us
                    .push((now - due(sent[k])).as_secs_f64() * 1e6);
                lane.conn
                    .send(&lane.batches[(lane.first + sent[k]) % lane.batches.len()])?;
                sent[k] += 1;
                last_progress = now;
            }
            while acked[k] < sent[k] {
                let Some(errs) = lane.conn.try_ack()? else {
                    break;
                };
                if errs == 0 {
                    out[k].latency_us[acked[k]] =
                        (Instant::now() - due(acked[k])).as_secs_f64() * 1e6;
                } else {
                    out[k].failed += 1;
                }
                acked[k] += 1;
                last_progress = now;
            }
        }
        if now - last_progress > REPLY_TIMEOUT {
            // Everything due was sent long ago; the rest never came.
            for (k, p) in out.iter_mut().enumerate() {
                p.failed += count - acked[k];
            }
            break;
        }
        let next_due = lanes
            .iter()
            .zip(&sent)
            .filter(|(_, &s)| s < count)
            .map(|(lane, &s)| lane.start + interval * s as u32)
            .min();
        let sleep = next_due
            .map_or(MAX_SLEEP, |due| {
                due.saturating_duration_since(Instant::now())
                    .saturating_sub(SPIN_BEFORE_DUE)
            })
            .min(MAX_SLEEP);
        if sleep.is_zero() {
            std::thread::yield_now();
        } else {
            let awaited: Vec<c_int> = lanes
                .iter()
                .zip(sent.iter().zip(&acked))
                .filter(|(_, (s, a))| a < s)
                .map(|(lane, _)| lane.conn.stream.as_raw_fd())
                .collect();
            wait_readable(&awaited, sleep);
        }
    }
    for lane in lanes.iter_mut() {
        lane.conn.set_nonblocking(false)?;
    }
    Ok(out)
}
