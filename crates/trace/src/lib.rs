//! # dynagg-trace
//!
//! Contact traces for trace-driven gossip simulation (paper §V, Fig. 11).
//!
//! The paper replays the CRAWDAD `cambridge/haggle` iMote traces: several
//! days of pairwise radio contacts among 9–41 devices carried by people.
//! Those traces are not redistributable, so this crate provides:
//!
//! * [`event`]/[`timeline`] — the contact-event data model and efficient
//!   time-indexed adjacency queries,
//! * [`format`][mod@format] — a text parser/writer so real CRAWDAD dumps can be dropped
//!   in unchanged,
//! * [`model`] — a seeded synthetic generator (community meeting process
//!   with a diurnal cycle) whose output matches the statistical envelope
//!   Fig. 11 depends on: small transient groups, minutes-to-hours churn,
//!   day/night rhythm,
//! * [`datasets`] — three bundled configurations shaped like Haggle
//!   datasets 1–3 (9, 12, 41 devices),
//! * [`groups`] — the paper's "nearby" relation: connected components over
//!   the union of edges seen in the last 10 minutes,
//! * [`stats`] — summary statistics (average group size over time, contact
//!   counts) used to sanity-check generated traces against the envelope.
//!
//! The [`datasets`] module doc holds the substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod event;
pub mod format;
pub mod groups;
pub mod model;
pub mod stats;
pub mod timeline;

pub use event::{ContactEvent, DeviceId};
pub use groups::GroupView;
pub use model::{TraceModel, TraceModelConfig};
pub use timeline::Timeline;
