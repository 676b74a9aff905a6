//! A blocking loopback HTTP/1.1 client and the daemon set-up that the
//! `setup_s` metric times.

use crate::workload::CATALOG;
use dex_analyze::{analyze_with, has_errors};
use dexd::{Catalog, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// One completed exchange with the daemon.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the connect started and the last response byte arrived.
    pub start: Instant,
    pub end: Instant,
}

/// Send one request on a fresh connection (dexd answers
/// `Connection: close`) and read the whole response. The request bytes
/// are assembled before the clock starts.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    let mut raw = Vec::with_capacity(4096);
    let start = Instant::now();
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    stream.write_all(&wire).map_err(io)?;
    stream.read_to_end(&mut raw).map_err(io)?;
    let end = Instant::now();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|n| n.trim().parse::<usize>().ok());
    let body = raw.split_off(split + 4);
    if length != Some(body.len()) {
        return Err(format!(
            "{method} {path}: Content-Length {length:?}, read {} bytes",
            body.len()
        ));
    }
    Ok(Reply {
        status,
        body,
        start,
        end,
    })
}

/// Load the catalog (parse, compile, lint), spawn dexd with
/// `ServerConfig::default()` persisting under `store_root`, and wait
/// until `/readyz` answers 200. Returns the handle and the time all of
/// that took.
pub fn start_daemon(store_root: &Path) -> Result<(ServerHandle, Duration), String> {
    let t = Instant::now();
    let catalog = Catalog::from_texts(CATALOG)?;
    for entry in catalog.entries() {
        let diags = analyze_with(&entry.mapping, Some(&entry.spans), Default::default());
        if has_errors(&diags) {
            return Err(format!("mapping `{}` lints with errors", entry.name));
        }
    }
    let config = ServerConfig {
        store_root: Some(store_root.to_path_buf()),
        ..ServerConfig::default()
    };
    let srv = ServerHandle::spawn(config, catalog).map_err(|e| format!("spawn dexd: {e}"))?;
    loop {
        if let Ok(r) = request(srv.addr(), "GET", "/readyz", b"") {
            if r.status == 200 {
                return Ok((srv, t.elapsed()));
            }
        }
        if t.elapsed() > Duration::from_secs(10) {
            srv.shutdown();
            return Err("dexd never became ready".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}
