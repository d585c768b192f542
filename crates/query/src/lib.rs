//! Query substrate: AST, parser, planner and executor for Propeller
//! file-search requests.
//!
//! The paper's File Query Engine interprets requests "from either the file
//! system namespace (e.g., a dynamic query-directory `/foo/bar/?size>1m`)
//! or a file-search API" (§IV). This crate implements that engine's
//! language side:
//!
//! * [`Predicate`] / [`Query`] — the AST (comparisons, keyword match,
//!   `&`/`|`/`!` combinators),
//! * [`Query::parse`] — the text syntax, including size suffixes (`1m`,
//!   `16mb`, `1g`) and relative-time literals (`mtime < 1day`),
//! * [`plan`] — index selection against any [`IndexCatalog`] (hash for
//!   equality, B+-tree for ranges, K-D tree for multi-attribute boxes,
//!   full scan as fallback),
//! * [`SearchRequest`] / [`SearchResponse`] — the first-class search API:
//!   top-k, sorting, projection, cursor pagination and fan-out failure
//!   policy,
//! * [`NodeSearchSession::open`] — **the one way a search executes**. A
//!   search over a node's pinned epochs is a session's *first page*: the
//!   request is analysed once, every ACG picks its access path, ordered
//!   scans become lazy streams pulled through one k-way merge (stop at the
//!   page's total admitted hits across all ACGs — the **node-global k
//!   cutoff**), the remaining ACGs run bounded top-k scans
//!   ([`execute_classic`]) under a shared [`GlobalCutoff`] seeded with
//!   each stream's first hit, and whatever the page left behind is
//!   suspended by position for the client to pull — the cluster extends
//!   the k cutoff across the wire by pulling each node one page at a time,
//!   so cold nodes ship ~one page instead of `k` hits,
//! * [`execute_node_request_sequential`] / [`execute_request`] — that same
//!   open with an unbounded first page (nothing suspends) and the classic
//!   scans run inline; the latter over a single epoch, materializing
//!   O(limit) per group. Callers commit first: the owning Index Node
//!   enforces the paper's search-sees-every-acknowledged-update rule,
//! * [`execute_request_reference`] — the materializing oracle the
//!   equivalence tests compare all of the above against.
//!
//! # Examples
//!
//! ```
//! use propeller_query::Query;
//! use propeller_types::Timestamp;
//!
//! let now = Timestamp::from_secs(1_000_000);
//! let q = Query::parse("size>16m & mtime<1day", now).unwrap();
//! assert!(q.scope.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod exec;
mod parser;
mod plan;
mod request;
mod session;

pub use ast::{CompareOp, ContainsMode, Predicate, Query};
pub use exec::{
    execute_classic, execute_node_request_sequential, execute_request, execute_request_reference,
    matches_record, ClassicResults, ClassicTask,
};
pub use parser::parse_size;
pub use plan::{plan, plan_request, AccessPath, IndexCatalog, Plan};
pub use request::{
    merge_hit_sources, merge_sorted_hits, next_cursor, run_local_search, AccessPathKind, Cursor,
    FanOutPolicy, GlobalCutoff, Hit, HitMerger, Projection, SearchRequest, SearchResponse,
    SearchStats, SortKey, TopK,
};
pub use session::{NodeSearchSession, SessionPage};
