//! The served program: `tcr serve` processes started from the release
//! binary, their readiness, and what `/proc` says about them.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// One running `tcr serve` process. Dropping it kills the process and
/// waits for it.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server's final `println!` never hits a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// `tcr serve` on a free loopback port with two session workers.
    pub fn single(tcr: &Path) -> Result<ServerProc, String> {
        ServerProc::spawn(tcr, &["serve", "--port", "0", "--workers", "2"])
    }

    /// Two `tcr serve --cluster` nodes on free loopback ports.
    pub fn cluster_pair(tcr: &Path) -> Result<Vec<ServerProc>, String> {
        let ports: Vec<u16> = (0..2)
            .map(|_| {
                TcpListener::bind("127.0.0.1:0")
                    .and_then(|l| l.local_addr())
                    .map(|a| a.port())
                    .map_err(|e| format!("cannot reserve a port: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let peers = format!("127.0.0.1:{},127.0.0.1:{}", ports[0], ports[1]);
        (0..2)
            .map(|node| {
                let node = node.to_string();
                ServerProc::spawn(
                    tcr,
                    &["serve", "--cluster", "--node", &node, "--peers", &peers],
                )
            })
            .collect()
    }

    fn spawn(tcr: &Path, args: &[&str]) -> Result<ServerProc, String> {
        let mut child = Command::new(tcr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tcr.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => parse_listening(&line),
            _ => None,
        };
        let mut proc = ServerProc {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match addr {
            Some(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            None => Err(format!(
                "`tcr {}` did not start: `{}`",
                args.join(" "),
                line.trim()
            )),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time so far, in clock ticks.
    pub fn cpu_ticks(&self) -> u64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<u64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse().ok())
            .collect();
        fields.iter().sum()
    }

    /// Peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address in a `tcr serve ... listening on ADDR ...` banner.
fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("listening on ")?.1;
    rest.split(|c: char| c.is_whitespace() || c == ';')
        .next()?
        .parse()
        .ok()
}

/// Linux reports `/proc` CPU times in units of `USER_HZ`, which is 100
/// on every architecture the kernel supports today.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The machine's stolen CPU time so far (all CPUs), in clock ticks:
/// time the host ran something else while this VM wanted to run.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
