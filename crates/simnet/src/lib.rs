//! # gdmp-simnet — deterministic WAN/TCP simulator
//!
//! The testbed substrate for the GDMP reproduction. The paper measured
//! GridFTP between CERN and ANL over a 45 Mb/s, 125 ms-RTT production link;
//! this crate provides the equivalent *simulated* path: a discrete-event
//! engine, drop-tail bottleneck links, and a packet-level TCP NewReno model
//! with configurable socket buffers — the exact mechanism whose tuning the
//! paper's Section 6 studies.
//!
//! Everything is deterministic: integer-nanosecond clocks, FIFO tie-breaking
//! in the event queue, and no wall-clock or RNG input, so every figure is
//! reproducible bit-for-bit.
//!
//! ## Quick example
//!
//! ```
//! use gdmp_simnet::{link::LinkSpec, network::{FlowSpec, Network, SessionResult}};
//!
//! // Four parallel 64 KB-buffer streams carrying 25 MB across the paper's
//! // CERN↔ANL path (45 Mb/s, 125 ms RTT).
//! let mut net = Network::single_link(LinkSpec::cern_anl());
//! for _ in 0..4 {
//!     net.add_flow(FlowSpec::transfer(25 * 1024 * 1024 / 4, 64 * 1024));
//! }
//! let results = net.run();
//! let session = SessionResult::aggregate(&results).unwrap();
//! assert!(session.throughput_mbps() > 10.0);
//! ```

pub mod analytic;
pub mod engine;
pub mod link;
pub mod network;
pub mod packet;
pub mod probe;
pub mod queue;
mod sim;
pub mod tcp;
pub mod time;

pub use link::LinkSpec;
pub use network::{FastForward, FlowResult, FlowSpec, Network, NetworkConfig, SessionResult};
pub use packet::{FlowId, LinkId};
pub use time::{SimDuration, SimTime};
