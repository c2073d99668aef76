//! Integrity-tree substrate: geometry, node formats and tree logic for
//! the SGX-style Integrity Tree (§II-D, Fig. 4).
//!
//! * [`sit`] — the SIT itself: every node is eight 56-bit counters plus
//!   one 64-bit HMAC keyed by the *parent's* counter, the dependency SCUE
//!   decouples;
//! * [`geometry`] — the 8-ary level structure over the 16 GB address
//!   space (9 levels, Table II) and the node↔address bijection;
//! * [`node`] — the packed 64 B SIT node codec and the dummy-counter sum;
//! * [`root`] — the on-chip non-volatile root registers (Running_root /
//!   Recovery_root);
//! * [`morph`] — analytic VAULT/MorphCtr wider-node organisations (the
//!   §VII discussion that SCUE is arity-independent);
//! * [`sideband`] — the ECC-co-located MAC store for user-data lines and
//!   leaf counter blocks (Synergy-style, so MACs travel with their line at
//!   no extra memory traffic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geometry;
pub mod morph;
pub mod node;
pub mod root;
pub mod sideband;
pub mod sit;

pub use geometry::{NodeId, Parent, TreeGeometry};
pub use node::{SitNode, COUNTER_MASK};
pub use root::RootRegister;
pub use sideband::MacSideband;
pub use sit::SitContext;
