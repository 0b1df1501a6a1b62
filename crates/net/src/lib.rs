//! `nazar-net` — the deterministic device↔cloud transport subsystem.
//!
//! Everything the Nazar pipeline moves between devices and the cloud —
//! drift-log batches, uploaded samples, and deployed `VersionMeta` +
//! `BnPatch` payloads — crosses a versioned, checksummed binary wire
//! protocol ([`wire`]) over a simulated network with injectable faults
//! ([`link`]). The simulation runs on a **virtual clock** (no sleeping, no
//! wall time), so experiments with 200 ms RTTs and 20% loss cost the same
//! wall clock as perfect-link runs, and the whole subsystem is
//! bit-reproducible for a given seed regardless of host, thread count, or
//! device insertion order.
//!
//! Layer map:
//!
//! | module       | role                                                  |
//! |--------------|-------------------------------------------------------|
//! | [`wire`]     | framing, checksums, message codecs (no I/O)           |
//! | [`error`]    | typed decode/transport errors — corrupt bytes never panic |
//! | [`link`]     | per-device fault/delay models ([`LinkConfig`])        |
//! | [`config`]   | [`NetConfig`]: the link, retry budget, chunk size, seed |
//! | [`client`]   | device endpoint: outbox, batching, download reassembly |
//! | [`server`]   | cloud endpoint: idempotent, reorder-tolerant ingest   |
//! | [`exchange`] | the event loop tying it together ([`Exchange`])       |
//!
//! The default [`NetConfig`] is a perfect link, under which routing traffic
//! through this crate is bitwise equivalent to direct in-process calls —
//! the property `tests/net_faults.rs` pins down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod clock;
pub mod config;
pub mod error;
pub mod exchange;
pub mod link;
pub mod server;
pub mod wire;

pub use client::{ClientAction, DecodeMemo, DeviceClient};
pub use config::NetConfig;
pub use error::{NetError, Result};
pub use exchange::{DeployDelivery, Exchange, FrameDelivery, NetReport, WindowDelivery};
pub use link::LinkConfig;
pub use server::{IngestOutcome, IngestServer};
pub use wire::{Message, FRAME_OVERHEAD, MAGIC, VERSION};
