//! # mwtj-server
//!
//! The serving front-end over [`mwtj_core::Engine`]: a long-lived
//! binary (`mwtj-server`) speaking a length-prefixed line protocol
//! over TCP, plus a `--stdin` line mode for tests and scripts.
//!
//! * [`protocol`] — frame codec ([`read_frame`]/[`write_frame`]) and
//!   the [`Request`] grammar. Run options on the wire are exactly
//!   `RunOptions`' `Display`/`FromStr` forms.
//! * [`server`] — [`Server`] (TCP accept loop, thread per connection,
//!   graceful drain), [`serve_lines`] (stdin mode), [`Client`], and
//!   the demo catalog loader.
//!
//! Every `run` request is admission-controlled by the engine's
//! [`Scheduler`](mwtj_core::Scheduler): concurrent clients share the
//! cluster's `k_P` unit budget, queueing or degrading to a
//! smaller-`k` replan when oversubscribed, instead of each query
//! assuming the whole cluster.
//!
//! The prepared-statement lifecycle is first-class on the wire:
//! `prepare` parses a (possibly `?`-parameterised) statement into a
//! per-connection table, `execute <id> [opts] [stream [batch=N]]
//! [params…]` runs it off the engine's shared plan cache (unary or as
//! a streamed frame sequence), `close <id>` drops it, and `stats`
//! reports the plan-cache counters
//! ([`Engine::stats_snapshot`](mwtj_core::Engine::stats_snapshot))
//! and the zone-map skip counters
//! ([`Engine::stats_snapshot`](mwtj_core::Engine::stats_snapshot))
//! in one frame.
//!
//! ```no_run
//! use mwtj_core::{Engine, RunOptions};
//! use mwtj_server::{load_demo, Client, Server};
//!
//! let engine = Engine::with_units(16);
//! load_demo(&engine);
//! let server = Server::bind(engine, "127.0.0.1:0").unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.serve().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client
//!     .run_sql(&RunOptions::default(), "SELECT * FROM r x, s y WHERE x.a = y.a")
//!     .unwrap();
//! assert!(reply.starts_with("ok "));
//! ```

#![warn(missing_docs)]

pub mod protocol;
pub mod server;

pub use protocol::{
    batch_frame, end_frame, err_response, ok_response, parse_stream_frame, read_frame,
    schema_frame, write_frame, FrameBuf, Request, StreamFrame, DEFAULT_STREAM_BATCH,
    MAX_FRAME_BYTES,
};
pub use server::{load_demo, serve_lines, Client, Server};
