//! End-to-end router test over two *real* `ghr serve` worker processes:
//! frames stream back byte-identically, a pipelined duplicate evaluates
//! nothing, a repeat in a later call is an exact response-cache hit,
//! routing is deterministic and cache-local, a killed worker's ids are
//! answered warm by the ring successor (through the shared persistent
//! store), and a fully dead cluster degrades to `reason=no-live-worker`
//! instead of hanging.

#![cfg(unix)]

mod common;

use common::{parse_frames, spawn_worker, Spawned};
use ghr_cli::router::{route_key, run_router, HashRing, RouterOptions};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghr-router-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn await_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while UnixStream::connect(path).is_err() {
        assert!(Instant::now() < deadline, "socket {path:?} never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Send request lines over one connection and return everything the
/// router streamed back (the write half closes, so the session drains).
fn client(socket: &Path, lines: &str) -> String {
    let mut stream = UnixStream::connect(socket).expect("connect to router");
    stream.write_all(lines.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn router_forwards_reroutes_and_drains_over_real_workers() {
    let dir = tmp_dir();
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let worker_socks = [dir.join("w0.sock"), dir.join("w1.sock")];
    let mut children: Vec<Spawned> = worker_socks
        .iter()
        .map(|s| spawn_worker(s, &cache))
        .collect();
    for sock in &worker_socks {
        await_socket(sock);
    }

    let router_sock = dir.join("router.sock");
    let opts = RouterOptions {
        socket: Some(router_sock.to_str().unwrap().to_string()),
        attach: worker_socks
            .iter()
            .map(|s| s.to_str().unwrap().to_string())
            .collect(),
        sessions: 4,
        ..RouterOptions::default()
    };
    let router = std::thread::spawn(move || run_router(&opts));
    await_socket(&router_sock);

    // A duplicate pipelined in one write on a cold cluster: the router
    // forwards both lines at once, so whichever reaches the owner first
    // evaluates, and the other either coalesces onto that evaluation or,
    // if it already finished, is answered from the response cache.
    // Either way the pair evaluates once and renders one body.
    let out = client(&router_sock, "table1\ntable1\n");
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 2, "{out}");
    assert!(frames.iter().all(|f| f.0.contains("status=ok")), "{out}");
    let (fresh, dup): (Vec<_>, Vec<_>) = frames.iter().partition(|f| f.0.ends_with(" cached=no"));
    assert_eq!(fresh.len(), 1, "exactly one of the pair evaluates: {out}");
    assert!(dup[0].0.contains(" evals=0 "), "{}", dup[0].0);
    assert!(
        dup[0].0.ends_with(" cached=yes") || dup[0].0.ends_with(" cached=coalesced"),
        "{}",
        dup[0].0
    );
    assert_eq!(frames[0].1, frames[1].1, "same request, same body");
    let cold_body = frames[0].1.clone();

    // The same request again in a second call, plus a non-servable
    // line: the owner's response cache answers (exactly `cached=yes`)
    // with the same body, and the error body passes through.
    let out = client(&router_sock, "table1\nno such thing\n");
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 2, "{out}");
    assert!(
        frames[0].0.contains("status=ok") && frames[0].0.ends_with(" evals=0 cached=yes"),
        "{}",
        frames[0].0
    );
    assert_eq!(frames[0].1, cold_body, "same request, same body");
    assert!(frames[1].0.contains("status=error"), "{}", frames[1].0);
    assert!(frames[1].1.contains("not a servable"), "{}", frames[1].1);

    // Byte-identity: the owning worker, asked directly, must produce
    // exactly the warm frame the router just streamed.
    let ring = HashRing::new(2);
    let owner = ring.route(route_key("table1"), &[true, true]).unwrap();
    let direct = client(&worker_socks[owner], "table1\n");
    let direct_frames = parse_frames(&direct);
    assert_eq!(direct_frames.len(), 1);
    assert_eq!(
        direct_frames[0], frames[0],
        "router frame differs from the worker's own bytes"
    );

    // Kill the owner: table1's range walks to the ring successor, which
    // answers *warm* (zero evaluations) from the shared persistent
    // store the dead worker flushed into — no client-visible error.
    children[owner].kill();
    let out = client(&router_sock, "table1\n");
    let frames = parse_frames(&out);
    assert_eq!(frames.len(), 1, "{out}");
    assert!(
        frames[0].0.contains("status=ok"),
        "killed worker's id must be answered by the successor: {}",
        frames[0].0
    );
    assert!(
        frames[0].0.contains("evals=0"),
        "successor must answer from the shared store, not re-evaluate: {}",
        frames[0].0
    );
    assert_eq!(
        frames[0].1, direct_frames[0].1,
        "body survives the re-route"
    );

    // Kill the survivor too: the ring is empty and the client gets an
    // explicit error frame, never a hang.
    let survivor = 1 - owner;
    children[survivor].kill();
    let out = client(&router_sock, "table1\n");
    assert_eq!(
        out, "ghr-error reason=no-live-worker\nghr-end\n",
        "dead cluster must degrade explicitly"
    );

    // A shutdown frame drains the router; attached workers are not its
    // to reap (they are already dead here) and the socket file goes.
    let _ = client(&router_sock, "ghr-shutdown\n");
    let summary = router.join().unwrap().expect("router drains cleanly");
    assert!(summary.contains("routed"), "{summary}");
    assert!(!router_sock.exists(), "socket file must be removed");

    let _ = std::fs::remove_dir_all(&dir);
}
