//! # gdmp-gridftp — the GridFTP data transfer protocol (Section 3.2)
//!
//! The transport engine of the reproduction, in two halves:
//!
//! * **Protocol machinery** usable over real sockets: control-channel
//!   commands/replies with GSI authentication ([`protocol`], [`server`],
//!   [`client`]), extended block mode with parallel data channels
//!   ([`block`]), partial transfers and restart markers ([`ranges`]), and
//!   the CRC-32 integrity check ([`crc`]). [`server::GridFtpServer`] and
//!   [`client::GridFtpClient`] run against each other over loopback TCP.
//! * **WAN performance simulation** ([`sim`], [`tuning`]): the paper's
//!   45 Mb/s / 125 ms CERN↔ANL path with production cross-traffic,
//!   driven by the packet-level TCP model of `gdmp-simnet` — the engine
//!   behind Figures 5 and 6.

pub mod block;
pub mod client;
pub mod crc;
pub mod protocol;
pub mod ranges;
pub mod server;
pub mod sim;
pub mod store;
pub mod stripe;
pub mod tuning;

pub use block::{Block, BlockDecoder, Reassembler};
pub use client::{ClientConfig, ClientError, GetReport, GridFtpClient};
pub use crc::{crc32, Crc32};
pub use ranges::ByteRanges;
pub use server::{GridFtpServer, ServerConfig};
pub use sim::{SimTransferReport, WanProfile};
pub use store::MemStore;
pub use stripe::{StripedProfile, StripedReport};
pub use tuning::{tune, TuningAdvice};
