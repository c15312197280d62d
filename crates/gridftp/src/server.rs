//! A GridFTP server over real TCP sockets (the wuftpd-derived daemon of
//! the paper, in miniature).
//!
//! Binds to a loopback port, speaks the control protocol of
//! [`crate::protocol`], authenticates clients with the simulated GSI, and
//! serves parallel extended-block-mode transfers over striped-passive data
//! channels. Used by integration tests and examples to demonstrate the
//! protocol code against a real network stack; the WAN-scale experiments
//! use the deterministic simulator instead.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gdmp_gsi::context::{make_token, verify_token, AuthToken};
use gdmp_gsi::proxy::CredentialChain;

use crate::block::{partition, Block, BlockDecoder, Reassembler};
use crate::crc::crc32;
use crate::protocol::{replies, Command, Reply};
use crate::store::MemStore;

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Host credential presented to clients.
    pub credential: CredentialChain,
    /// Trusted CA verification key.
    pub ca_public: u64,
    /// GSI time for certificate validation.
    pub now: u64,
    /// Block size for extended-mode data blocks.
    pub block_size: usize,
    /// Refuse file operations before authentication.
    pub require_auth: bool,
}

/// A running server; dropping it (or calling [`GridFtpServer::stop`])
/// shuts the listener down.
pub struct GridFtpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl GridFtpServer {
    /// Start on an ephemeral loopback port.
    pub fn start(store: MemStore, cfg: ServerConfig) -> std::io::Result<GridFtpServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let nonce_counter = Arc::new(AtomicU64::new(0x6d70_6467_0000_0001));
        let handle = std::thread::spawn(move || {
            while !shutdown2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let store = store.clone();
                        let cfg = cfg.clone();
                        let nonce = nonce_counter.fetch_add(0x9e37_79b9, Ordering::Relaxed);
                        std::thread::spawn(move || {
                            let _ = Session::new(store, cfg, nonce).run(stream);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(GridFtpServer { addr, shutdown, handle: Some(handle) })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GridFtpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Payload of the ADAT exchange (hex-encoded JSON on the wire).
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct AdatPayload {
    pub token: AuthToken,
    pub nonce: u64,
}

pub(crate) fn hex_encode(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

pub(crate) fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok()).collect()
}

struct Session {
    store: MemStore,
    cfg: ServerConfig,
    nonce: u64,
    authed: Option<String>,
    auth_started: bool,
    parallelism: u32,
    mode: char,
    buffer: u64,
    listeners: Vec<TcpListener>,
    /// Active-mode (SPOR) targets: the server connects out to these for
    /// the next transfer (third-party data flow to another server).
    active_targets: Vec<SocketAddr>,
}

impl Session {
    fn new(store: MemStore, cfg: ServerConfig, nonce: u64) -> Self {
        Session {
            store,
            cfg,
            nonce,
            authed: None,
            auth_started: false,
            parallelism: 1,
            mode: 'S',
            buffer: 64 * 1024,
            listeners: Vec::new(),
            active_targets: Vec::new(),
        }
    }

    fn run(&mut self, stream: TcpStream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        send(&mut writer, &replies::ready(self.nonce))?;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(()); // peer hung up
            }
            let reply = match Command::parse(&line) {
                Err(e) => replies::syntax(&e.to_string()),
                Ok(Command::Quit) => {
                    send(&mut writer, &replies::bye())?;
                    return Ok(());
                }
                Ok(cmd) => self.handle(cmd, &mut writer)?,
            };
            send(&mut writer, &reply)?;
        }
    }

    fn handle(&mut self, cmd: Command, writer: &mut TcpStream) -> std::io::Result<Reply> {
        // Authentication gate.
        if self.cfg.require_auth && self.authed.is_none() {
            match cmd {
                Command::AuthGssapi | Command::Adat(_) | Command::Noop => {}
                _ => return Ok(Reply::new(530, "please authenticate first")),
            }
        }
        Ok(match cmd {
            Command::AuthGssapi => {
                self.auth_started = true;
                replies::adat_continue()
            }
            Command::Adat(hex) => self.handle_adat(&hex),
            Command::TypeImage => replies::ok("type set to I"),
            Command::Mode(m) => {
                self.mode = m;
                replies::ok(&format!("mode set to {m}"))
            }
            Command::Sbuf(n) => {
                self.buffer = n;
                replies::ok(&format!("socket buffer set to {n}"))
            }
            Command::OptsParallelism(n) => {
                self.parallelism = n.max(1);
                replies::ok(&format!("parallelism set to {}", self.parallelism))
            }
            Command::Spas(n) => self.handle_spas(n),
            Command::Spor(addrs) => {
                self.listeners.clear();
                self.active_targets = addrs;
                replies::ok("entering striped active mode")
            }
            Command::Size(path) => match self.store.size(&path) {
                Some(n) => replies::size(n),
                None => replies::not_found(&path),
            },
            Command::Cksm { offset, length, path } => match self.store.get(&path) {
                None => replies::not_found(&path),
                Some(data) => {
                    let start = offset.min(data.len() as u64) as usize;
                    let end = if length < 0 {
                        data.len()
                    } else {
                        (start + length as usize).min(data.len())
                    };
                    replies::cksm(crc32(&data[start..end]))
                }
            },
            Command::Retr(path) => match self.store.get(&path) {
                None => replies::not_found(&path),
                Some(data) => self.send_data(writer, data, 0)?,
            },
            Command::EretPartial { offset, length, path } => match self.store.get(&path) {
                None => replies::not_found(&path),
                Some(data) => {
                    let start = offset.min(data.len() as u64) as usize;
                    let end = (start + length as usize).min(data.len());
                    let slice = data.slice(start..end);
                    self.send_data(writer, slice, start as u64)?
                }
            },
            Command::Stor { path, size } => self.recv_data(writer, &path, size)?,
            Command::Dele(path) => match self.store.delete(&path) {
                Ok(()) => replies::deleted(),
                Err(_) => replies::not_found(&path),
            },
            Command::Noop => replies::ok("noop"),
            Command::Quit => unreachable!("handled by caller"),
        })
    }

    fn handle_adat(&mut self, hex: &str) -> Reply {
        if !self.auth_started {
            return replies::bad_sequence("AUTH GSSAPI first");
        }
        let Some(raw) = hex_decode(hex) else {
            return replies::denied("undecodable token");
        };
        let Ok(payload) = serde_json::from_slice::<AdatPayload>(&raw) else {
            return replies::denied("malformed token");
        };
        match verify_token(&payload.token, self.nonce, self.cfg.ca_public, self.cfg.now) {
            Err(e) => replies::denied(&e.to_string()),
            Ok(identity) => {
                self.authed = Some(identity.to_string());
                // Mutual leg: prove our own identity over the client nonce.
                let ours = make_token(&self.cfg.credential, payload.nonce);
                let resp = AdatPayload { token: ours, nonce: self.nonce };
                let encoded = hex_encode(&serde_json::to_vec(&resp).expect("token serializes"));
                replies::auth_ok(&encoded)
            }
        }
    }

    fn handle_spas(&mut self, n: u32) -> Reply {
        self.listeners.clear();
        let mut ports = Vec::new();
        for _ in 0..n {
            match TcpListener::bind("127.0.0.1:0") {
                Ok(l) => {
                    ports.push(l.local_addr().map(|a| a.port()).unwrap_or(0));
                    self.listeners.push(l);
                }
                Err(_) => return Reply::new(425, "cannot open data ports"),
            }
        }
        self.parallelism = n;
        replies::spas(&ports)
    }

    /// Serve a RETR/ERET over the striped-passive channels, or — in SPOR
    /// (active) mode — by connecting out to another server's data ports
    /// (third-party transfer).
    fn send_data(
        &mut self,
        writer: &mut TcpStream,
        data: Bytes,
        base_offset: u64,
    ) -> std::io::Result<Reply> {
        if self.listeners.is_empty() && self.active_targets.is_empty() {
            return Ok(replies::bad_sequence("SPAS or SPOR before RETR"));
        }
        if self.mode != 'E' {
            return Ok(replies::bad_sequence("MODE E required for parallel transfer"));
        }
        send(writer, &replies::opening())?;
        let channels = self.listeners.len().max(self.active_targets.len());
        let mut parts = partition(&data, self.cfg.block_size, channels);
        for list in &mut parts {
            for b in list.iter_mut() {
                if !b.is_eod() {
                    b.offset += base_offset;
                }
            }
        }
        let mut threads: Vec<std::thread::JoinHandle<std::io::Result<()>>> = Vec::new();
        if self.active_targets.is_empty() {
            for (listener, blocks) in self.listeners.drain(..).zip(parts) {
                threads.push(std::thread::spawn(move || -> std::io::Result<()> {
                    let (mut conn, _) = accept_with_deadline(&listener, Duration::from_secs(10))?;
                    for b in &blocks {
                        conn.write_all(&b.encode())?;
                    }
                    conn.flush()?;
                    Ok(())
                }));
            }
        } else {
            for (addr, blocks) in std::mem::take(&mut self.active_targets).into_iter().zip(parts) {
                threads.push(std::thread::spawn(move || -> std::io::Result<()> {
                    let mut conn = TcpStream::connect(addr)?;
                    for b in &blocks {
                        conn.write_all(&b.encode())?;
                    }
                    conn.flush()?;
                    Ok(())
                }));
            }
        }
        let mut failed = false;
        for t in threads {
            failed |= t.join().map(|r| r.is_err()).unwrap_or(true);
        }
        Ok(if failed { Reply::new(426, "data connection failed") } else { replies::complete() })
    }

    /// Receive a STOR over the striped-passive channels.
    fn recv_data(
        &mut self,
        writer: &mut TcpStream,
        path: &str,
        size: u64,
    ) -> std::io::Result<Reply> {
        if self.listeners.is_empty() {
            return Ok(replies::bad_sequence("SPAS before STOR"));
        }
        if self.mode != 'E' {
            return Ok(replies::bad_sequence("MODE E required for parallel transfer"));
        }
        send(writer, &replies::opening())?;
        let channels = self.listeners.len();
        let mut threads = Vec::new();
        for listener in self.listeners.drain(..) {
            threads.push(std::thread::spawn(move || -> std::io::Result<Vec<Block>> {
                let (mut conn, _) = accept_with_deadline(&listener, Duration::from_secs(10))?;
                let mut dec = BlockDecoder::new();
                let mut out = Vec::new();
                let mut buf = [0u8; 64 * 1024];
                loop {
                    let n = conn.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    dec.feed(&buf[..n]);
                    while let Some(b) = dec.next_block().map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })? {
                        let done = b.is_eod();
                        out.push(b);
                        if done {
                            return Ok(out);
                        }
                    }
                }
                Ok(out)
            }));
        }
        let mut reasm = Reassembler::new(size, channels);
        let mut failed = false;
        for t in threads {
            match t.join() {
                Ok(Ok(blocks)) => {
                    for b in blocks {
                        if reasm.accept(&b).is_err() {
                            failed = true;
                        }
                    }
                }
                _ => failed = true,
            }
        }
        if failed || !reasm.is_complete() {
            return Ok(Reply::new(451, "upload incomplete"));
        }
        self.store.put(path, reasm.into_bytes());
        Ok(replies::complete())
    }
}

fn send(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    stream.write_all(reply.format().as_bytes())?;
    stream.write_all(b"\r\n")
}

/// Accept with a deadline on a listener left in non-blocking-capable state.
pub(crate) fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Duration,
) -> std::io::Result<(TcpStream, SocketAddr)> {
    listener.set_nonblocking(true)?;
    let start = std::time::Instant::now();
    loop {
        match listener.accept() {
            Ok(pair) => {
                pair.0.set_nonblocking(false)?;
                pair.0.set_read_timeout(Some(Duration::from_secs(30)))?;
                return Ok(pair);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if start.elapsed() > deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "no data connection arrived",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let data = b"\x00\x01\xfe\xff grid";
        assert_eq!(hex_decode(&hex_encode(data)).unwrap(), data);
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }
}
