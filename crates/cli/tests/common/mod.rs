//! Helpers shared by the integration tests that start real `ghr serve`
//! worker processes.

use std::path::Path;
use std::process::{Child, Command, Stdio};

/// A spawned `ghr` process, killed and reaped when dropped — also while a
/// failed assertion unwinds — so a failing test never leaks its workers.
pub struct Spawned(Child);

impl Spawned {
    /// Kill the process now and wait for it.
    pub fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Start `ghr serve` on the unix socket `sock` over the shared store
/// `cache`, with 4 session slots.
pub fn spawn_worker(sock: &Path, cache: &Path) -> Spawned {
    let child = Command::new(env!("CARGO_BIN_EXE_ghr"))
        .args([
            "serve",
            "--socket",
            sock.to_str().unwrap(),
            "--sessions",
            "4",
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ghr serve");
    Spawned(child)
}

/// Split a concatenation of `ghr-response`/`ghr-error` frames into
/// `(header, body)` pairs.
pub fn parse_frames(text: &str) -> Vec<(String, String)> {
    let mut frames = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (header, tail) = rest.split_once('\n').expect("frame header line");
        if header.starts_with("ghr-error ") {
            let tail = tail.strip_prefix("ghr-end\n").expect("error frame trailer");
            frames.push((header.to_string(), String::new()));
            rest = tail;
            continue;
        }
        let bytes: usize = header
            .split_whitespace()
            .find_map(|t| t.strip_prefix("bytes="))
            .expect("bytes= in header")
            .parse()
            .unwrap();
        let body = &tail[..bytes];
        let tail = tail[bytes..].strip_prefix("ghr-end\n").expect("trailer");
        frames.push((header.to_string(), body.to_string()));
        rest = tail;
    }
    frames
}
