//! Processes and connections: every `ghr` process the benchmark starts is
//! owned by a [`Proc`] that kills and reaps it on drop (including while a
//! panic unwinds), and every socket read has a deadline.
//!
//! Processes are started without a pre-exec hook (a kill-on-parent-death
//! request would need one), so the standard library can use `posix_spawn`
//! instead of a full `fork` of the benchmark and no `unsafe` runs in the
//! child. Servers are given an idle timeout instead (see `workloads`), so
//! one outlives a killed benchmark by at most that.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest the benchmark waits for any one socket read or write. A request
/// that takes longer counts as failed.
pub const IO_DEADLINE: Duration = Duration::from_secs(5);

/// Longest a started process may take to accept connections.
pub const READY_DEADLINE: Duration = Duration::from_secs(30);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
}

const WNOHANG: i32 = 1;
/// `ru_maxrss` (kilobytes) follows the two `timeval`s of `struct rusage`.
const RU_MAXRSS: usize = 4;

/// A child process that is killed and reaped when dropped.
pub struct Proc {
    name: String,
    child: Child,
    reaped: bool,
    stderr: PathBuf,
}

impl Proc {
    /// Start `bin args…` with stdout discarded and stderr captured to
    /// `stderr`.
    pub fn spawn(name: &str, bin: &Path, args: &[String], stderr: PathBuf) -> Result<Proc, String> {
        let log = File::create(&stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {name} ({}): {e}", bin.display()))?;
        Ok(Proc {
            name: name.to_string(),
            child,
            reaped: false,
            stderr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident memory so far (`VmHWM`), in kilobytes.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Bytes the process has written to its stderr so far.
    pub fn stderr_len(&self) -> u64 {
        std::fs::metadata(&self.stderr)
            .map(|m| m.len())
            .unwrap_or(0)
    }

    pub fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr).unwrap_or_default()
    }

    /// Wait for the process to exit on its own; past `deadline` it is
    /// killed and the wait fails. Returns whether it exited successfully
    /// and its peak resident memory in kilobytes.
    pub fn wait(&mut self, deadline: Duration) -> Result<(bool, u64), String> {
        let until = Instant::now() + deadline;
        let pid = self.pid() as i32;
        loop {
            let mut status = 0i32;
            let mut usage = [0i64; 18];
            // SAFETY: both pointers are to live, writable locals of the
            // sizes `wait4` writes (an int and a 144-byte `struct rusage`
            // of 18 longs on 64-bit Linux); `pid` is our own unreaped child.
            let r = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
            if r == pid {
                self.reaped = true;
                let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
                return Ok((exited_ok, usage[RU_MAXRSS].max(0) as u64));
            }
            if r < 0 {
                return Err(format!("{}: wait failed", self.name));
            }
            if Instant::now() >= until {
                self.kill();
                return Err(format!(
                    "{} did not exit within {:.0} s",
                    self.name,
                    deadline.as_secs_f64()
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn kill(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.reaped = true;
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Why a request did not produce an ok frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    Connect(String),
    Timeout,
    Io(String),
    /// A `ghr-error reason=…` frame (overload, malformed, …).
    Rejected(String),
    /// A response frame with `status=error`.
    Status(String),
}

/// One `ghr-response` frame.
#[derive(Debug, Clone)]
pub struct Frame {
    pub id: String,
    pub cached: String,
    pub evals: u64,
    pub body: Vec<u8>,
}

/// One client connection to a serve or router endpoint.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(path: &Path) -> Result<Conn, Failure> {
        let stream = UnixStream::connect(path).map_err(|e| Failure::Connect(e.to_string()))?;
        let io = |e: std::io::Error| Failure::Connect(e.to_string());
        stream.set_read_timeout(Some(IO_DEADLINE)).map_err(io)?;
        stream.set_write_timeout(Some(IO_DEADLINE)).map_err(io)?;
        let writer = stream.try_clone().map_err(io)?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connect, retrying until the endpoint accepts or `deadline` passes.
    pub fn await_ready(path: &Path, deadline: Duration) -> Result<Conn, String> {
        let until = Instant::now() + deadline;
        loop {
            match Conn::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= until => {
                    return Err(format!("{} never accepted: {e:?}", path.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn send(&mut self, line: &str) -> Result<(), Failure> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).map_err(io_failure)
    }

    /// Read one frame. An error frame or `status=error` is a failure.
    pub fn recv(&mut self) -> Result<Frame, Failure> {
        let mut header = String::new();
        if self.reader.read_line(&mut header).map_err(io_failure)? == 0 {
            return Err(Failure::Io("connection closed".into()));
        }
        let header = header.trim_end_matches('\n');
        if let Some(reason) = header.strip_prefix("ghr-error ") {
            self.expect_end()?;
            return Err(Failure::Rejected(reason.to_string()));
        }
        let Some(fields) = header.strip_prefix("ghr-response ") else {
            return Err(Failure::Io(format!("unexpected header {header:?}")));
        };
        let field = |key: &str| {
            fields
                .split(' ')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or("")
        };
        let bytes: usize = field("bytes")
            .parse()
            .map_err(|_| Failure::Io(format!("bad byte count in {header:?}")))?;
        let mut body = vec![0u8; bytes];
        self.reader.read_exact(&mut body).map_err(io_failure)?;
        self.expect_end()?;
        if field("status") != "ok" {
            return Err(Failure::Status(String::from_utf8_lossy(&body).into_owned()));
        }
        Ok(Frame {
            id: field("id").to_string(),
            cached: field("cached").to_string(),
            evals: field("evals").parse().unwrap_or(0),
            body,
        })
    }

    pub fn call(&mut self, line: &str) -> Result<Frame, Failure> {
        self.send(line)?;
        self.recv()
    }

    fn expect_end(&mut self) -> Result<(), Failure> {
        let mut end = String::new();
        self.reader.read_line(&mut end).map_err(io_failure)?;
        if end == "ghr-end\n" {
            Ok(())
        } else {
            Err(Failure::Io(format!("frame not closed: {end:?}")))
        }
    }
}

fn io_failure(e: std::io::Error) -> Failure {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Failure::Timeout,
        _ => Failure::Io(e.to_string()),
    }
}

/// Ask the server or router at `path` to drain, then wait for `proc` to
/// exit. Its stderr then holds the drain counters.
pub fn drain(path: &Path, proc: &mut Proc) -> Result<(), String> {
    let mut conn = Conn::connect(path).map_err(|e| format!("drain connect: {e:?}"))?;
    conn.send("ghr-shutdown")
        .map_err(|e| format!("drain send: {e:?}"))?;
    drop(conn);
    let (ok, _) = proc.wait(Duration::from_secs(20))?;
    if ok {
        Ok(())
    } else {
        Err(format!("{} exited with an error after drain", proc.name))
    }
}
