//! Extended block mode (MODE E) framing, and the data channels that
//! carry it.
//!
//! Parallel and striped transfers need out-of-order, multi-channel data
//! delivery, which stream mode cannot express. Extended block mode frames
//! every chunk with `(flags, length, offset)` so any data channel can carry
//! any part of the file, and EOD/EOF bookkeeping tells the receiver when
//! all channels are drained. `send_blocks` and `recv_blocks` are the one
//! sender and the one receiver every socket transfer runs on.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::ranges::ByteRanges;

/// Header flags (subset of the GridFTP extended-block flag byte).
pub mod flags {
    /// End of data on this channel.
    pub const EOD: u8 = 0x08;
    /// End of file: the sender also announces the channel count.
    pub const EOF: u8 = 0x40;
    /// Block is a restart-marker hint rather than file data.
    pub const RESTART: u8 = 0x20;
}

/// One extended-mode block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub flags: u8,
    pub offset: u64,
    pub payload: Bytes,
}

impl Block {
    pub fn data(offset: u64, payload: Bytes) -> Self {
        Block { flags: 0, offset, payload }
    }

    /// End-of-data sentinel for one channel.
    pub fn eod() -> Self {
        Block { flags: flags::EOD, offset: 0, payload: Bytes::new() }
    }

    pub fn is_eod(&self) -> bool {
        self.flags & flags::EOD != 0
    }

    /// 17-byte header + payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(17 + self.payload.len());
        buf.put_u8(self.flags);
        buf.put_u64(self.payload.len() as u64);
        buf.put_u64(self.offset);
        buf.put_slice(&self.payload);
        buf.freeze()
    }
}

/// Framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    Truncated,
    /// Declared length exceeds the sanity cap.
    OversizedBlock(u64),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated block"),
            FrameError::OversizedBlock(n) => write!(f, "block of {n} bytes exceeds cap"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Largest block a conforming peer may send (sanity cap for the decoder).
pub const MAX_BLOCK: u64 = 16 * 1024 * 1024;

/// Incremental decoder: feed bytes, pull complete blocks.
#[derive(Debug, Default)]
pub struct BlockDecoder {
    buf: BytesMut,
}

impl BlockDecoder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Try to decode the next complete block.
    pub fn next_block(&mut self) -> Result<Option<Block>, FrameError> {
        if self.buf.len() < 17 {
            return Ok(None);
        }
        let mut peek = &self.buf[..];
        let flags = peek.get_u8();
        let len = peek.get_u64();
        let offset = peek.get_u64();
        if len > MAX_BLOCK {
            return Err(FrameError::OversizedBlock(len));
        }
        if (self.buf.len() as u64) < 17 + len {
            return Ok(None);
        }
        self.buf.advance(17);
        let payload = self.buf.split_to(len as usize).freeze();
        Ok(Some(Block { flags, offset, payload }))
    }

    /// Leftover undecoded bytes (should be 0 at stream end).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Split a file into blocks and deal them to `channels` data channels
/// round-robin — the sender side of a parallel transfer. Each channel's
/// list ends with an EOD block.
pub fn partition(data: &Bytes, block_size: usize, channels: usize) -> Vec<Vec<Block>> {
    assert!(channels > 0, "at least one data channel");
    assert!(block_size > 0, "block size must be positive");
    let mut out: Vec<Vec<Block>> = vec![Vec::new(); channels];
    let mut offset = 0usize;
    let mut ch = 0usize;
    while offset < data.len() {
        let end = (offset + block_size).min(data.len());
        out[ch].push(Block::data(offset as u64, data.slice(offset..end)));
        offset = end;
        ch = (ch + 1) % channels;
    }
    for list in &mut out {
        list.push(Block::eod());
    }
    out
}

/// The receiver side: reassemble blocks (possibly out of order, from many
/// channels) into a file image, tracking coverage for restart markers.
#[derive(Debug)]
pub struct Reassembler {
    size: u64,
    data: Vec<u8>,
    received: ByteRanges,
    eods: usize,
    /// Channels expected to signal EOD.
    channels: usize,
}

/// Reassembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyError {
    /// Block extends past the announced file size.
    OutOfBounds { offset: u64, len: u64, size: u64 },
    /// More EOD markers than channels.
    ExtraEod,
}

impl std::fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReassemblyError::OutOfBounds { offset, len, size } => {
                write!(f, "block {offset}+{len} exceeds file size {size}")
            }
            ReassemblyError::ExtraEod => write!(f, "unexpected extra EOD"),
        }
    }
}

impl std::error::Error for ReassemblyError {}

impl Reassembler {
    pub fn new(size: u64, channels: usize) -> Self {
        Reassembler {
            size,
            data: vec![0; size as usize],
            received: ByteRanges::new(),
            eods: 0,
            channels,
        }
    }

    pub fn accept(&mut self, block: &Block) -> Result<(), ReassemblyError> {
        if block.is_eod() {
            if self.eods >= self.channels {
                return Err(ReassemblyError::ExtraEod);
            }
            self.eods += 1;
            return Ok(());
        }
        let len = block.payload.len() as u64;
        if block.offset + len > self.size {
            return Err(ReassemblyError::OutOfBounds {
                offset: block.offset,
                len,
                size: self.size,
            });
        }
        self.data[block.offset as usize..(block.offset + len) as usize]
            .copy_from_slice(&block.payload);
        self.received.insert(block.offset, block.offset + len);
        Ok(())
    }

    /// All channels EODed and every byte covered.
    pub fn is_complete(&self) -> bool {
        self.eods == self.channels && self.received.is_complete(self.size)
    }

    pub fn received(&self) -> &ByteRanges {
        &self.received
    }

    /// Extract the file; panics unless complete.
    pub fn into_bytes(self) -> Bytes {
        assert!(
            self.received.is_complete(self.size),
            "reassembly incomplete: {} of {} bytes",
            self.received.covered(),
            self.size
        );
        Bytes::from(self.data)
    }

    /// Extract whatever arrived (for resume-after-failure testing).
    pub fn into_partial(self) -> (Bytes, ByteRanges) {
        (Bytes::from(self.data), self.received)
    }
}

/// One end of a data channel: dial a peer's port, or take the next
/// connection on a port of our own.
pub(crate) enum Channel {
    Dial(SocketAddr),
    Accept(TcpListener),
}

impl Channel {
    /// Connect, or accept within 10 s; reads time out after 30 s.
    fn open(self) -> io::Result<TcpStream> {
        let conn = match self {
            Channel::Dial(addr) => TcpStream::connect(addr)?,
            Channel::Accept(listener) => {
                listener.set_nonblocking(true)?;
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match listener.accept() {
                        Ok((conn, _)) => break conn,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            if Instant::now() > deadline {
                                return Err(io::Error::new(
                                    io::ErrorKind::TimedOut,
                                    "no data connection arrived",
                                ));
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        };
        conn.set_nonblocking(false)?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(conn)
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Join every channel thread, then report the first failure (a panic
/// counts as one).
fn join_all<T>(threads: Vec<JoinHandle<io::Result<T>>>) -> io::Result<Vec<T>> {
    let results: Vec<io::Result<T>> = threads
        .into_iter()
        .map(|t| t.join().unwrap_or_else(|_| Err(io::Error::other("data thread panicked"))))
        .collect();
    results.into_iter().collect()
}

/// The sender side of a parallel transfer: deal `data`, whose first byte
/// sits at `base` in the file, to the channels in blocks of `block_size`
/// ([`partition`]) and write each channel's share, EOD last, on a thread
/// of its own.
pub(crate) fn send_blocks(
    channels: Vec<Channel>,
    data: &Bytes,
    base: u64,
    block_size: usize,
) -> io::Result<()> {
    let parts = partition(data, block_size, channels.len());
    let threads = channels
        .into_iter()
        .zip(parts)
        .map(|(channel, blocks)| {
            std::thread::spawn(move || -> io::Result<()> {
                let mut conn = channel.open()?;
                for mut b in blocks {
                    if !b.is_eod() {
                        b.offset += base;
                    }
                    conn.write_all(&b.encode())?;
                }
                conn.flush()
            })
        })
        .collect();
    join_all(threads).map(drop)
}

/// The receiver side: drain every channel on a thread of its own until it
/// sends EOD or closes, and reassemble the `length` bytes that start at
/// `base` in the file (block offsets are rebased to the range).
pub(crate) fn recv_blocks(
    channels: Vec<Channel>,
    base: u64,
    length: u64,
) -> io::Result<Reassembler> {
    let mut reasm = Reassembler::new(length, channels.len());
    let threads = channels.into_iter().map(|c| std::thread::spawn(move || read_channel(c)));
    for mut b in join_all(threads.collect())?.into_iter().flatten() {
        if !b.is_eod() {
            b.offset = b.offset.checked_sub(base).ok_or_else(|| invalid("block before range"))?;
        }
        reasm.accept(&b).map_err(invalid)?;
    }
    Ok(reasm)
}

/// One channel's blocks, up to its EOD or until it closes or times out.
fn read_channel(channel: Channel) -> io::Result<Vec<Block>> {
    let mut conn = channel.open()?;
    let mut dec = BlockDecoder::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = match conn.read(&mut buf) {
            Ok(0) => return Ok(out),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(out),
            Err(e) => return Err(e),
        };
        dec.feed(&buf[..n]);
        while let Some(b) = dec.next_block().map_err(invalid)? {
            let eod = b.is_eod();
            out.push(b);
            if eod {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    #[test]
    fn block_encode_decode_roundtrip() {
        let b = Block::data(12345, sample(1000));
        let mut d = BlockDecoder::new();
        d.feed(&b.encode());
        let back = d.next_block().unwrap().unwrap();
        assert_eq!(back, b);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn decoder_handles_fragmented_input() {
        let blocks = [Block::data(0, sample(100)), Block::data(100, sample(50)), Block::eod()];
        let mut wire = Vec::new();
        for b in &blocks {
            wire.extend_from_slice(&b.encode());
        }
        let mut d = BlockDecoder::new();
        let mut out = Vec::new();
        for chunk in wire.chunks(7) {
            d.feed(chunk);
            while let Some(b) = d.next_block().unwrap() {
                out.push(b);
            }
        }
        assert_eq!(out.len(), 3);
        assert!(out[2].is_eod());
    }

    #[test]
    fn decoder_rejects_oversized() {
        let mut d = BlockDecoder::new();
        let mut evil = BytesMut::new();
        evil.put_u8(0);
        evil.put_u64(MAX_BLOCK + 1);
        evil.put_u64(0);
        d.feed(&evil);
        assert!(matches!(d.next_block(), Err(FrameError::OversizedBlock(_))));
    }

    #[test]
    fn partition_round_robin_covers_file() {
        let data = sample(10_000);
        let parts = partition(&data, 1000, 3);
        assert_eq!(parts.len(), 3);
        // Channel 0 gets blocks 0, 3, 6, 9 → offsets 0, 3000, 6000, 9000.
        let offs: Vec<u64> = parts[0].iter().filter(|b| !b.is_eod()).map(|b| b.offset).collect();
        assert_eq!(offs, vec![0, 3000, 6000, 9000]);
        // Every channel ends with EOD.
        for p in &parts {
            assert!(p.last().unwrap().is_eod());
        }
        // Total payload = file size.
        let total: usize = parts.iter().flatten().map(|b| b.payload.len()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn reassembly_out_of_order() {
        let data = sample(5000);
        let parts = partition(&data, 700, 4);
        let mut r = Reassembler::new(5000, 4);
        // Deliver channels in reverse, blocks reversed within channels.
        for p in parts.iter().rev() {
            for b in p.iter().rev() {
                r.accept(b).unwrap();
            }
        }
        assert!(r.is_complete());
        assert_eq!(r.into_bytes(), data);
    }

    #[test]
    fn stalled_detection_on_missing_block() {
        let data = sample(3000);
        let parts = partition(&data, 500, 2);
        let mut r = Reassembler::new(3000, 2);
        for (i, p) in parts.iter().enumerate() {
            for (j, b) in p.iter().enumerate() {
                if i == 1 && j == 1 && !b.is_eod() {
                    continue; // drop one data block
                }
                r.accept(b).unwrap();
            }
        }
        assert!(!r.is_complete());
        let (_, ranges) = r.into_partial();
        assert_eq!(ranges.missing(3000).len(), 1);
    }

    #[test]
    fn out_of_bounds_block_rejected() {
        let mut r = Reassembler::new(100, 1);
        let err = r.accept(&Block::data(90, sample(20))).unwrap_err();
        assert!(matches!(err, ReassemblyError::OutOfBounds { .. }));
    }

    #[test]
    fn extra_eod_rejected() {
        let mut r = Reassembler::new(0, 1);
        r.accept(&Block::eod()).unwrap();
        assert!(r.is_complete());
        assert_eq!(r.accept(&Block::eod()), Err(ReassemblyError::ExtraEod));
    }

    #[test]
    fn empty_file_completes_with_eods_only() {
        let data = sample(0);
        let parts = partition(&data, 100, 2);
        let mut r = Reassembler::new(0, 2);
        for p in &parts {
            for b in p {
                r.accept(b).unwrap();
            }
        }
        assert!(r.is_complete());
        assert_eq!(r.into_bytes().len(), 0);
    }
}
