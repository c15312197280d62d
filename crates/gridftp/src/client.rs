//! GridFTP client over real TCP: the `globus_url_copy` / `extended_get`
//! side of the protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use gdmp_gsi::context::{make_token, verify_token};
use gdmp_gsi::proxy::CredentialChain;

use crate::block::{recv_blocks, send_blocks, Channel};
use crate::crc::crc32;
use crate::protocol::{replies, Command, Reply};
use crate::ranges::ByteRanges;
use crate::server::{hex_decode, hex_encode, AdatPayload};

/// Client-side configuration.
#[derive(Clone)]
pub struct ClientConfig {
    pub credential: CredentialChain,
    pub ca_public: u64,
    pub now: u64,
    /// Number of parallel data channels.
    pub parallelism: u32,
    /// Socket buffer to negotiate with `SBUF`.
    pub buffer: u64,
    /// Block size when storing.
    pub block_size: usize,
    /// Nonce for the handshake (callers supply; no wall clock here).
    pub nonce: u64,
}

/// Client errors.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// Server answered with a negative reply.
    Refused(Reply),
    Auth(String),
    /// Transfer ended with bytes missing; the ranges received so far are
    /// included so the caller can restart.
    Stalled {
        received: ByteRanges,
        partial: Bytes,
    },
    /// CRC mismatch after transfer.
    Corrupt {
        expected: u32,
        actual: u32,
    },
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Refused(r) => write!(f, "server refused: {} {}", r.code, r.text),
            ClientError::Auth(s) => write!(f, "authentication: {s}"),
            ClientError::Stalled { received, .. } => {
                write!(f, "transfer stalled; received {}", received.to_marker())
            }
            ClientError::Corrupt { expected, actual } => {
                write!(f, "CRC mismatch: expected {expected:08x}, got {actual:08x}")
            }
            ClientError::Protocol(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Statistics from one retrieval.
#[derive(Debug, Clone, Copy)]
pub struct GetReport {
    pub bytes: u64,
    pub channels: u32,
    /// CRC verified against the server's CKSM answer.
    pub crc32: u32,
}

/// An authenticated control-channel session.
pub struct GridFtpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    cfg: ClientConfig,
    /// Authenticated server identity (DN string).
    pub server_identity: String,
}

impl GridFtpClient {
    /// Connect and authenticate.
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        let mut client = GridFtpClient {
            reader: BufReader::new(stream),
            writer,
            cfg,
            server_identity: String::new(),
        };
        let greeting = client.read_reply()?;
        if greeting.code != 220 {
            return Err(ClientError::Refused(greeting));
        }
        let server_nonce = replies::parse_nonce(&greeting)
            .ok_or_else(|| ClientError::Protocol("greeting lacks GSI nonce".into()))?;
        client.authenticate(server_nonce)?;
        client.command_expect(&Command::TypeImage, 200)?;
        client.command_expect(&Command::Mode('E'), 200)?;
        let buffer = client.cfg.buffer;
        client.command_expect(&Command::Sbuf(buffer), 200)?;
        let par = client.cfg.parallelism;
        client.command_expect(&Command::OptsParallelism(par), 200)?;
        Ok(client)
    }

    fn authenticate(&mut self, server_nonce: u64) -> Result<(), ClientError> {
        self.command_expect(&Command::AuthGssapi, 334)?;
        let payload = AdatPayload {
            token: make_token(&self.cfg.credential, server_nonce),
            nonce: self.cfg.nonce,
        };
        let hex = hex_encode(&serde_json::to_vec(&payload).expect("token serializes"));
        let reply = self.command(&Command::Adat(hex))?;
        if reply.code != 235 {
            return Err(ClientError::Auth(reply.text));
        }
        let token_hex = reply
            .text
            .strip_prefix("ADAT=")
            .ok_or_else(|| ClientError::Protocol("235 without ADAT=".into()))?;
        let raw = hex_decode(token_hex)
            .ok_or_else(|| ClientError::Protocol("undecodable server token".into()))?;
        let server: AdatPayload = serde_json::from_slice(&raw)
            .map_err(|_| ClientError::Protocol("malformed server token".into()))?;
        let identity =
            verify_token(&server.token, self.cfg.nonce, self.cfg.ca_public, self.cfg.now)
                .map_err(|e| ClientError::Auth(format!("server failed mutual auth: {e}")))?;
        self.server_identity = identity.to_string();
        Ok(())
    }

    // ---- queries -------------------------------------------------------

    pub fn size(&mut self, path: &str) -> Result<u64, ClientError> {
        let r = self.command_expect(&Command::Size(path.into()), 213)?;
        r.text.trim().parse().map_err(|_| ClientError::Protocol("bad SIZE reply".into()))
    }

    /// Remote CRC-32 over a byte range (`length = -1` → to end of file).
    pub fn cksm(&mut self, path: &str, offset: u64, length: i64) -> Result<u32, ClientError> {
        let r = self.command_expect(&Command::Cksm { offset, length, path: path.into() }, 213)?;
        u32::from_str_radix(r.text.trim(), 16)
            .map_err(|_| ClientError::Protocol("bad CKSM reply".into()))
    }

    pub fn delete(&mut self, path: &str) -> Result<(), ClientError> {
        self.command_expect(&Command::Dele(path.into()), 250).map(|_| ())
    }

    pub fn quit(mut self) -> Result<(), ClientError> {
        self.command_expect(&Command::Quit, 221).map(|_| ())
    }

    // ---- transfers -------------------------------------------------------

    /// Retrieve a whole file over `parallelism` channels, verifying its CRC
    /// against the server's.
    pub fn get(&mut self, path: &str) -> Result<(Bytes, GetReport), ClientError> {
        let size = self.size(path)?;
        let expected_crc = self.cksm(path, 0, -1)?;
        let (data, channels) = self.fetch(&Command::Retr(path.into()), 0, size)?;
        let actual = crc32(&data);
        if actual != expected_crc {
            return Err(ClientError::Corrupt { expected: expected_crc, actual });
        }
        Ok((data, GetReport { bytes: size, channels, crc32: actual }))
    }

    /// Retrieve one byte range (`ERET P`): the building block for partial
    /// transfer and restart.
    pub fn get_partial(
        &mut self,
        path: &str,
        offset: u64,
        length: u64,
    ) -> Result<Bytes, ClientError> {
        let cmd = Command::EretPartial { offset, length, path: path.into() };
        self.fetch(&cmd, offset, length).map(|(data, _)| data)
    }

    /// Resume: fill the missing ranges of a partially received file, then
    /// verify the complete CRC. `partial` must be a full-size buffer with
    /// `received` describing its valid ranges (as returned by a
    /// [`ClientError::Stalled`]).
    pub fn resume(
        &mut self,
        path: &str,
        partial: Bytes,
        received: &ByteRanges,
    ) -> Result<Bytes, ClientError> {
        let size = self.size(path)?;
        let expected_crc = self.cksm(path, 0, -1)?;
        let mut buf = partial.to_vec();
        buf.resize(size as usize, 0);
        for (start, end) in received.missing(size) {
            let chunk = self.get_partial(path, start, end - start)?;
            buf[start as usize..end as usize].copy_from_slice(&chunk);
        }
        let actual = crc32(&buf);
        if actual != expected_crc {
            return Err(ClientError::Corrupt { expected: expected_crc, actual });
        }
        Ok(Bytes::from(buf))
    }

    /// Store a file over `parallelism` channels.
    pub fn put(&mut self, path: &str, data: Bytes) -> Result<(), ClientError> {
        let channels = self.data_channels()?;
        self.command_expect(&Command::Stor { path: path.into(), size: data.len() as u64 }, 150)?;
        send_blocks(channels, &data, 0, self.cfg.block_size)
            .map_err(|_| ClientError::Protocol("data channel write failed".into()))?;
        self.expect_completion()
    }

    // ---- plumbing -------------------------------------------------------

    /// Send `cmd` over freshly opened data channels and reassemble the
    /// `length` bytes at `offset` that the server answers with. Returns
    /// them with the channel count.
    fn fetch(
        &mut self,
        cmd: &Command,
        offset: u64,
        length: u64,
    ) -> Result<(Bytes, u32), ClientError> {
        let channels = self.data_channels()?;
        let n = channels.len() as u32;
        self.command_expect(cmd, 150)?;
        let received = recv_blocks(channels, offset, length);
        self.expect_completion()?;
        let reasm = received?;
        if !reasm.is_complete() {
            let (partial, received) = reasm.into_partial();
            return Err(ClientError::Stalled { received, partial });
        }
        Ok((reasm.into_bytes(), n))
    }

    /// Open `parallelism` striped-passive ports on the server.
    fn data_channels(&mut self) -> Result<Vec<Channel>, ClientError> {
        let ports = self.spas(self.cfg.parallelism.max(1))?;
        let ip = self.writer.peer_addr()?.ip();
        Ok(ports.into_iter().map(|p| Channel::Dial(SocketAddr::new(ip, p))).collect())
    }

    fn spas(&mut self, n: u32) -> Result<Vec<u16>, ClientError> {
        let r = self.command_expect(&Command::Spas(n), 229)?;
        replies::parse_spas_ports(&r)
            .ok_or_else(|| ClientError::Protocol("unparseable SPAS reply".into()))
    }

    fn expect_completion(&mut self) -> Result<(), ClientError> {
        let r = self.read_reply()?;
        if r.code == 226 {
            Ok(())
        } else {
            Err(ClientError::Refused(r))
        }
    }

    fn command(&mut self, cmd: &Command) -> Result<Reply, ClientError> {
        self.writer.write_all(cmd.format().as_bytes())?;
        self.writer.write_all(b"\r\n")?;
        self.read_reply()
    }

    fn command_expect(&mut self, cmd: &Command, code: u16) -> Result<Reply, ClientError> {
        let r = self.command(cmd)?;
        if r.code == code {
            Ok(r)
        } else {
            Err(ClientError::Refused(r))
        }
    }

    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("server closed control channel".into()));
        }
        Reply::parse(&line).ok_or_else(|| ClientError::Protocol(format!("bad reply: {line:?}")))
    }
}

/// Third-party transfer (a headline GridFTP feature: "third-party control
/// of data transfer"): the client orchestrates a direct server→server
/// copy over its two control channels — data never touches the client.
/// `dst` is put into striped-passive mode (`SPAS` + `STOR`); `src` is told
/// to connect out to those ports (`SPOR`) and `RETR`. The destination's
/// copy is CRC-verified against the source. Returns the bytes moved.
pub fn third_party_copy(
    src: &mut GridFtpClient,
    dst: &mut GridFtpClient,
    src_path: &str,
    dst_path: &str,
    channels: u32,
) -> Result<u64, ClientError> {
    let size = src.size(src_path)?;
    let expected_crc = src.cksm(src_path, 0, -1)?;
    // Destination: open striped-passive data ports and start the store.
    let ports = dst.spas(channels.max(1))?;
    let dst_ip = dst.writer.peer_addr()?.ip();
    let targets: Vec<SocketAddr> = ports.iter().map(|&p| SocketAddr::new(dst_ip, p)).collect();
    dst.command_expect(&Command::Stor { path: dst_path.into(), size }, 150)?;
    // Source: connect out to the destination's ports and send.
    src.command_expect(&Command::Spor(targets), 200)?;
    src.command_expect(&Command::Retr(src_path.into()), 150)?;
    src.expect_completion()?;
    dst.expect_completion()?;
    // End-to-end integrity: the destination recomputes the CRC.
    let actual = dst.cksm(dst_path, 0, -1)?;
    if actual != expected_crc {
        return Err(ClientError::Corrupt { expected: expected_crc, actual });
    }
    Ok(size)
}

/// Striped retrieval over real TCP: fetch one file from `m` stripe servers
/// (each holding a full replica), each serving a contiguous byte range
/// over its own control + data channels — the "m hosts to n hosts" mode.
/// The reassembled file is CRC-verified against the first server.
pub fn striped_get(
    stripes: &[(SocketAddr, ClientConfig)],
    path: &str,
) -> Result<Bytes, ClientError> {
    assert!(!stripes.is_empty(), "need at least one stripe server");
    // Size and reference CRC from the first stripe.
    let (size, expected_crc) = {
        let mut c = GridFtpClient::connect(stripes[0].0, stripes[0].1.clone())?;
        let size = c.size(path)?;
        let crc = c.cksm(path, 0, -1)?;
        (size, crc)
    };
    let m = stripes.len() as u64;
    let per = size / m;
    let mut threads = Vec::new();
    for (i, (addr, cfg)) in stripes.iter().enumerate() {
        let (addr, cfg) = (*addr, cfg.clone());
        let path = path.to_string();
        let start = per * i as u64;
        let len = if i as u64 == m - 1 { size - start } else { per };
        threads.push(std::thread::spawn(move || -> Result<(u64, Bytes), ClientError> {
            if len == 0 {
                return Ok((start, Bytes::new()));
            }
            let mut c = GridFtpClient::connect(addr, cfg)?;
            let chunk = c.get_partial(&path, start, len)?;
            Ok((start, chunk))
        }));
    }
    let mut buf = vec![0u8; size as usize];
    for t in threads {
        let (start, chunk) =
            t.join().map_err(|_| ClientError::Protocol("stripe thread panicked".into()))??;
        buf[start as usize..start as usize + chunk.len()].copy_from_slice(&chunk);
    }
    let actual = crc32(&buf);
    if actual != expected_crc {
        return Err(ClientError::Corrupt { expected: expected_crc, actual });
    }
    Ok(Bytes::from(buf))
}
