//! Asbestos-style information-flow labels, as used by the HiStar kernel.
//!
//! This crate implements Section 2 of *Making Information Flow Explicit in
//! HiStar* (OSDI 2006): taint categories, taint levels, labels (functions
//! from categories to levels), the `⊑` ("can flow to") partial order, the
//! `⊔` least-upper-bound operator, and the derived checks the kernel uses on
//! every object access ("no read up", "no write down"), plus the clearance
//! rules that bound how far a thread may taint itself.
//!
//! # Overview
//!
//! * [`Category`] — a 61-bit opaque category identifier.  Categories are
//!   allocated by a [`CategoryAllocator`], which encrypts a counter with a
//!   small block cipher so that one thread cannot learn how many categories
//!   another thread allocated.
//! * [`Level`] — the taint levels that may appear in an object's label:
//!   `⋆`, `0`, `1`, `2`, `3`.  [`CheckLevel`] additionally models the
//!   `J` ("HiStar") level used only during label checks.
//! * [`Label`] — a total function from categories to levels, represented as
//!   a default level plus a shared, sorted list of exceptions, with a
//!   structural hash fixed at construction.
//! * [`LabelCache`] — memoizes comparisons between immutable labels, the
//!   §4 kernel optimization.
//!
//! # Examples
//!
//! ```
//! use histar_label::{Label, Level, Category};
//!
//! let br = Category::from_raw(1);
//! let v = Category::from_raw(2);
//!
//! // Bob's private files: {br 3, 1}
//! let file = Label::builder().set(br, Level::L3).default_level(Level::L1).build();
//! // An untainted thread: {1}
//! let thread = Label::new(Level::L1);
//! // The thread cannot observe the file (no read up).
//! assert!(!thread.can_observe(&file));
//! // wrap, owning br: {br ⋆, v 3, 1}
//! let wrap = Label::builder()
//!     .set(br, Level::Star)
//!     .set(v, Level::L3)
//!     .default_level(Level::L1)
//!     .build();
//! assert!(wrap.can_observe(&file));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod category;
pub mod error;
pub mod label;
pub mod level;

pub use cache::LabelCache;
pub use category::{Category, CategoryAllocator};
pub use error::LabelError;
pub use label::{Label, LabelBuilder};
pub use level::{CheckLevel, Level};

/// Convenience result alias for label operations.
pub type Result<T> = core::result::Result<T, LabelError>;
