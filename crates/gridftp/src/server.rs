//! A GridFTP server over real TCP sockets (the wuftpd-derived daemon of
//! the paper, in miniature).
//!
//! Binds to a loopback port, speaks the control protocol of
//! [`crate::protocol`], authenticates clients with the simulated GSI, and
//! serves parallel extended-block-mode transfers over striped-passive data
//! channels. Used by integration tests and examples to demonstrate the
//! protocol code against a real network stack; the WAN-scale experiments
//! use the deterministic simulator instead.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gdmp_gsi::context::{make_token, verify_token, AuthToken};
use gdmp_gsi::proxy::CredentialChain;

use crate::block::{recv_blocks, send_blocks, Channel};
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
    /// The next transfer's data channels: ports of our own after `SPAS`,
    /// or, after `SPOR`, another server's ports to dial (third-party data
    /// flow).
    channels: Vec<Channel>,
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
            channels: Vec::new(),
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
                self.channels = addrs.into_iter().map(Channel::Dial).collect();
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
            Command::Retr(path) => self.serve(writer, &path, 0, u64::MAX)?,
            Command::EretPartial { offset, length, path } => {
                self.serve(writer, &path, offset, length)?
            }
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
        self.channels.clear();
        let mut ports = Vec::new();
        for _ in 0..n {
            match TcpListener::bind("127.0.0.1:0") {
                Ok(l) => {
                    ports.push(l.local_addr().map(|a| a.port()).unwrap_or(0));
                    self.channels.push(Channel::Accept(l));
                }
                Err(_) => return Reply::new(425, "cannot open data ports"),
            }
        }
        self.parallelism = n;
        replies::spas(&ports)
    }

    /// Serve `length` bytes of `path` from `offset` (`RETR` asks for all
    /// of it, `ERET P` for a range, each clamped to the file) over the
    /// channels of the last `SPAS` or, for a third-party transfer, `SPOR`.
    fn serve(
        &mut self,
        writer: &mut TcpStream,
        path: &str,
        offset: u64,
        length: u64,
    ) -> std::io::Result<Reply> {
        let Some(data) = self.store.get(path) else {
            return Ok(replies::not_found(path));
        };
        if self.channels.is_empty() {
            return Ok(replies::bad_sequence("SPAS or SPOR before RETR"));
        }
        if self.mode != 'E' {
            return Ok(replies::bad_sequence("MODE E required for parallel transfer"));
        }
        send(writer, &replies::opening())?;
        let start = offset.min(data.len() as u64);
        let end = start.saturating_add(length).min(data.len() as u64);
        let range = data.slice(start as usize..end as usize);
        let sent =
            send_blocks(std::mem::take(&mut self.channels), &range, start, self.cfg.block_size);
        Ok(if sent.is_ok() {
            replies::complete()
        } else {
            Reply::new(426, "data connection failed")
        })
    }

    /// Receive a STOR over the striped-passive channels.
    fn recv_data(
        &mut self,
        writer: &mut TcpStream,
        path: &str,
        size: u64,
    ) -> std::io::Result<Reply> {
        if !matches!(self.channels.first(), Some(Channel::Accept(_))) {
            return Ok(replies::bad_sequence("SPAS before STOR"));
        }
        if self.mode != 'E' {
            return Ok(replies::bad_sequence("MODE E required for parallel transfer"));
        }
        send(writer, &replies::opening())?;
        match recv_blocks(std::mem::take(&mut self.channels), 0, size) {
            Ok(reasm) if reasm.is_complete() => {
                self.store.put(path, reasm.into_bytes());
                Ok(replies::complete())
            }
            _ => Ok(Reply::new(451, "upload incomplete")),
        }
    }
}

fn send(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    stream.write_all(reply.format().as_bytes())?;
    stream.write_all(b"\r\n")
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
