//! # adds-klimit — the §2.1 prior-work baselines
//!
//! The ADDS paper motivates its declaration-based approach by the failure
//! modes of *analysis-only* structure estimation (§2.1). This crate
//! implements that family over the same IL so the comparison can be run
//! rather than cited:
//!
//! * [`Mode::Blob`] — "approach (1)": concentrate on arrays and make
//!   overly conservative assumptions for all pointer structures. Every
//!   heap cell is one summary blob; nothing is ever parallelizable.
//! * [`Mode::KLimit`]`(k)` — the k-limited storage graphs of Jones &
//!   Muchnick \[JM81\] and the variations the paper cites (\[LH88a\],
//!   \[LH88b\], \[HPR89\]): nodes further than `k` dereferences from every
//!   variable are merged into a per-type summary node. **The merge
//!   introduces cycles in the abstraction** — the exact disadvantage §2.1
//!   calls out — so list walks over loop-built lists can never be proven
//!   revisit-free.
//! * [`Mode::AllocSite`] — the Chase–Wegman–Zadeck direction \[CWZ90\]:
//!   allocation-site naming with a recency split (one *concrete* most-recent
//!   node + one summary node per site), strong updates through the concrete
//!   node, and *allocation-ordered* edge tracking, which lets it keep
//!   loop-built lists acyclic. As §2.1 notes, the method still "fails to
//!   find accurate structure estimates in the presence of general
//!   recursion" — any call boundary (or recursive builder) collapses to the
//!   unknown external world here, exactly reproducing that failure.
//!
//! All three run as abstract interpretation of [`StorageGraph`]s over the
//! `adds-lang` AST ([`analyze_function`]), answer may-alias and shape
//! queries ([`queries`]), and deliver a strip-mine parallelizability
//! verdict per pointer-chasing loop ([`check_function`]) that plugs into
//! the precision ladder against ADDS + general path matrix analysis
//! (`adds::ladder`, rendered by `adds-cli ladder`).
//!
//! The crate depends only on `adds-lang`; `adds-core` (the paper's own
//! analysis) never sees these graphs — the two sides meet only in
//! `adds::ladder` and the integration tests.

#![warn(missing_docs)]

pub mod analysis;
pub mod graph;
pub mod programs;
pub mod queries;
pub mod verdict;

pub use analysis::{analyze_function, analyze_source, FnGraphs, Mode};
pub use graph::{EdgeKind, Label, NodeId, StorageGraph};
pub use queries::{classify_shape, may_alias, walk_is_distinct, Shape};
pub use verdict::{check_function, check_source, PriorCheck};
