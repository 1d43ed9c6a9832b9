//! # weavepar-middleware — the distribution substrate (paper §4.3)
//!
//! The paper's distribution concern runs objects on remote nodes and
//! redirects method calls through a middleware — Java RMI for naming +
//! synchronous remote invocation, or the MPP message-passing library for
//! explicit sends received by a server loop (Figures 13–15). This crate
//! rebuilds that stack:
//!
//! * [`wire`] — a compact binary codec ([`Wire`]) plus argument-pack
//!   marshalling ([`MarshalRegistry`]), standing in for Java serialisation;
//!   registration hands out dense [`ClassId`]/[`MethodId`] handles so the
//!   per-call fast path is an array index, and [`wire::PackFrame`] frames
//!   many oneway calls into one `CallPack` message;
//! * [`pool`] — the [`BufPool`] frame recycler and the [`pool::ReplyPool`]
//!   of reply cells (one-shot futures) behind the zero-allocation call path;
//! * [`nameserver`] — the RMI registry analogue (`PS1`, `PS2`, ... names);
//! * [`node`] — a [`NodeRuntime`]: one simulated cluster node = a mailbox,
//!   a serve token and one thread, with its own
//!   [`Weaver`](weavepar_weave::Weaver) and object space, serving
//!   construct/call requests (the MPP receive loop of Figure 15); a replied
//!   request to an idle node is served on the caller's thread;
//! * [`fabric`] — an [`InProcFabric`] wiring N nodes together in-process;
//! * [`aspects`] — the pluggable distribution aspects, built through
//!   [`RmiConfig`](aspects::RmiConfig) (name-server lookup + synchronous
//!   call with reply, Figure 14) and [`MppConfig`](aspects::MppConfig)
//!   (direct node addressing, Figure 15) — both chain an optional placement
//!   [`Policy`](aspects::Policy) (round-robin, random, fixed — §4.3 "several
//!   policies can be implemented in this aspect"), a [`CallPolicy`]
//!   (default: wait forever, never retry) and an optional metrics registry — plus the §4.4
//!   communication-packing optimisation
//!   ([`aspects::message_packing_aspect`]);
//! * [`migration`] — the paper's Figure 2 `migrate` method, introduced by
//!   static crosscutting and actually moving object state between nodes.
//!
//! Everything runs for real: calls are marshalled to bytes, cross the node's
//! mailbox (or, node idle, are served where they stand), and execute on the
//! remote node's object space. Only the *performance*
//! of the 2005 cluster is left to `weavepar-cluster`'s simulator.

pub mod aspects;
pub mod fabric;
pub mod faults;
pub mod migration;
pub mod nameserver;
pub mod node;
pub mod policy;
pub mod pool;
mod server;
pub mod wire;

pub use bytes::{Bytes, BytesMut};

pub use aspects::{message_packing_aspect, MessagePacker, MppConfig, Policy, RmiConfig};
pub use fabric::{InProcFabric, RemoteRef};
pub use faults::{FaultAction, FaultPlan, FaultRule, FaultStats, FaultStatsSnapshot, RequestClass};
pub use migration::{introduce_migration, migrate_object, remove_migration, MigrationCapability};
pub use nameserver::NameServer;
pub use node::{NodeRuntime, Request};
pub use policy::{Backoff, CallPolicy};
pub use pool::{BufPool, ReplyPool};
pub use wire::{ClassId, MarshalRegistry, MethodId, PackFrame, PackReader, Wire, WireArgs};
