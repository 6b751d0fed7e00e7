//! Embedded, encrypted, crash-consistent key-value store.
//!
//! The paper's PALÆMON keeps its state (policies, expected tags, secrets) in
//! an encrypted SQLite database inside the enclave (§IV). This crate is the
//! equivalent substrate: a key-value store whose durability path is a
//! write-ahead log of AEAD-sealed batches on an untrusted
//! [`shielded_fs::store::BlockStore`], with snapshot checkpoints.
//!
//! Durability model (matches the Fig. 11 read ≪ update asymmetry):
//!
//! * reads are served from the in-memory persistent tree — no storage
//!   round trip, and [`Db::view`] snapshots are O(1);
//! * [`Db::commit`] (or [`Db::commit_stage`] + [`CommitTicket::wait`] for
//!   concurrent writers) group-commits: every commit staged into the same
//!   flush window rides **one** sealed WAL batch and **one** `sync` — and,
//!   for commits staged with [`Db::commit_stage_covered`], **one**
//!   [`CommitCover`] call (the Fig. 6 counter increment) made by the
//!   window's leader between that sync and the acknowledgement;
//! * a window's leader is *elected*, may *linger*, then *closes*: the
//!   paper's tag push is a closed loop (a service blocks until its tag is
//!   acknowledged, Fig. 6 / Fig. 11), so every acknowledgement releases a
//!   herd of writers that stage their next commit a moment later. The
//!   leader holds the window open for that herd — until all of it but one
//!   is back (the last stages into the next window and leads it), or for at
//!   most a quarter of the store's last `sync` — instead of closing it in
//!   their face and leaving them to sit out a whole foreign sync. A commit
//!   that arrives alone (no herd was released, or not recently, or herds
//!   have not been coming back) is flushed at once, as ever: nothing is
//!   configured, the windows measure it all themselves
//!   ([`store`]'s module docs have the rule).
//!
//! Integrity: every WAL batch and snapshot is AEAD-bound to its sequence
//! number, so record tampering and reordering are detected at open. A
//! *consistent whole-database rollback* is intentionally NOT detectable at
//! this layer — that is the job of the version/monotonic-counter guard in
//! `palaemon-core::instance` (paper Fig. 6), and tests there rely on this
//! layer behaving exactly that way.

pub mod store;
pub mod tree;

pub use store::{
    ChangeSet, CommitCover, CommitTicket, Db, DbError, DbStats, DbView, Puts, Tombstones,
};
pub use tree::Bytes;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, DbError>;
