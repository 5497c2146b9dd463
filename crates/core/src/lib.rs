//! # hka-core
//!
//! The paper's contribution: a **Trusted Server (TS)** that preserves
//! *historical k-anonymity* for location-based service users.
//!
//! The crate implements the full Section-3/6 machinery:
//!
//! * the service model (Fig. 1): users send exact positions and requests to
//!   the TS; providers receive `(msgid, UserPseudonym, Area, TimeInterval,
//!   Data)` tuples with generalized contexts;
//! * privacy profiles ([`PrivacyLevel`]) — "users can turn on and off a
//!   privacy protecting system which has a simplified user interface with
//!   qualitative degrees of concern: low, medium, high", translated by the
//!   TS into concrete parameters (k, Θ, the k′ schedule);
//! * per-service **tolerance constraints** ([`Tolerance`]) — "the coarsest
//!   spatial and temporal granularity for the service to still be useful";
//! * **Algorithm 1** ([`algorithm1_first`]/[`algorithm1_subsequent`]) — spatio-temporal generalization
//!   against the k closest PHLs, with the tolerance check and
//!   uniform-shrink fallback, over either the grid index or brute force;
//! * the Section-6.1 **strategy** ([`TrustedServer`]) — monitor LBQIDs,
//!   generalize matching requests, unlink (change pseudonym at a mix-zone)
//!   when generalization fails, notify the user at risk when unlinking
//!   fails too;
//! * **mix-zones** ([`MixZoneManager`]) — static zones plus the paper's
//!   proposed on-demand zones built from k diverging trajectories;
//! * the SP-side **adversary** ([`adversary`]) — pseudonym/tracker linkage
//!   plus the Section-1 "phone book" home-lookup attack, used to measure
//!   re-identification empirically;
//! * **deployability analysis** ([`planning`]) — the paper's purpose (b):
//!   "evaluate if the privacy policies that a location-based service
//!   guarantees are sufficient to deploy the service in a certain area";
//! * **crash-safe checkpoints** ([`checkpoint`]) — atomic snapshots of the
//!   TS state anchored into the journal's hash chain, enabling
//!   snapshot + journal-suffix recovery and prefix truncation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod checkpoint;
pub mod derivation;
mod envelope;
mod events;
mod generalize;
mod mixzone;
pub mod planning;
mod policy;
mod randomize;
mod server;
mod service;
pub mod strategy;

pub use envelope::{
    parse_wire_msg, parse_wire_reply, EnvelopeBody, RequestEnvelope, ResponseEnvelope, WireError,
    WireMsg, WireOutcome, WireReply,
};
pub use service::RequestService;

pub use checkpoint::{
    CheckpointReceipt, Checkpointer, RecoveredCheckpoint, ServerMeta, SkippedCheckpoints, UserMeta,
};
pub use events::{EventLog, JournalHealth, RetryPolicy, SuppressReason, TsEvent, TsStats};
pub use generalize::{
    algorithm1_first, algorithm1_first_brute, algorithm1_first_from, algorithm1_subsequent,
    algorithm1_subsequent_from, Generalization,
};
pub use mixzone::{MixZoneConfig, MixZoneManager, UnlinkDecision};
pub use policy::{PrivacyLevel, PrivacyParams, RiskAction, Tolerance};
pub use randomize::{RandomizeConfig, Randomizer};
pub use server::{
    PrivacyIndicator, RequestOutcome, ServerMode, SuppressReasonPub, TrustedServer, TsConfig,
    TsError,
};
pub use strategy::{Disclosure, Ingest, PatternState, RequestHost, UserState};
