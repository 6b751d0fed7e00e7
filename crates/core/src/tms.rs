//! The PALÆMON trust management service itself.
//!
//! One [`Palaemon`] value is one service instance running inside a TEE. It
//! owns the encrypted database (policies, secrets, volume keys, expected
//! tags), verifies application quotes, enforces policy boards on every CRUD
//! access, and runs the tag service used for rollback protection.
//!
//! ## Access control (paper §IV-E)
//! Policy CRUD is guarded in two stages: the *client certificate* presented
//! at creation owns the policy and must sign every later access, and the
//! *policy board* (if declared) must approve each action with a quorum of
//! fresh signed votes. Secret *delivery*, in contrast, is guarded by
//! attestation: only an application whose MRENCLAVE, platform and
//! file-system state match the policy receives the configuration.
//!
//! ## Tag service (paper §III-D)
//! Applications push their file-system tag on every file close / sync /
//! exit over their attested session. Tag updates are committed to the
//! encrypted database (the expensive path measured in Fig. 11-left); reads
//! are served from memory.
//!
//! ## Concurrency (sharded lock domains)
//! One [`Palaemon`] serves many client threads at once (share it behind an
//! `Arc`, or drive it through [`crate::server::TmsServer`]). Every
//! operation takes `&self`; the interior is split into independent lock
//! domains so unrelated operations never contend:
//!
//! * `db` (`RwLock<Db>`) — the policy/secret/tag store. Hot read paths
//!   ([`Palaemon::read_tag`], [`Palaemon::read_policy`], attestation) take
//!   the read lock only long enough to clone a [`DbView`] snapshot and do
//!   all their work lock-free on it; writers serialize on the write lock.
//! * `sessions` (`RwLock`) — the attested-session table.
//! * `approvals` (`Mutex`) — pending board approvals + the nonce counter.
//! * `rng` (`Mutex`) — secret generation.
//! * `qe_keys` (`RwLock`) — registered quoting-enclave keys.
//! * `pending_changes` / `policy_cursors` (`Mutex`) — replication change
//!   capture and per-policy delta-chain cursors.
//!
//! **Lock order:** `db` before `approvals` before `rng`. `sessions`,
//! `qe_keys`, `pending_changes` and `policy_cursors` are leaf locks —
//! never acquire another lock while holding them (they may themselves be
//! taken under `db`). Guards are dropped before calling out to crypto or
//! the store wherever possible.
//!
//! Below the engine, the kvdb's group-commit core adds two locks of its
//! own: the `window` mutex (staging + the follower condvar) and the `wal`
//! mutex (store/meta), ordered `db` → `window` → `wal`. Mutations stage
//! into the window *under* the db write guard (`Db::commit_stage`, cheap,
//! no I/O), then drop the guard and park on the window condvar
//! (`CommitTicket::wait`) holding **no** engine lock — so one writer's
//! `sync` never blocks other writers from staging, and commits group into
//! shared windows. Condvar waits hold only the `window` mutex; the leader
//! releases it before sealing and syncing under `wal`, and holds neither
//! while it runs the window's cover — on a strict engine (one built into a
//! [`crate::server::TmsServer::with_commit_counter`] server) the Fig. 6
//! counter increment that client mutations stage *covered* by, which takes
//! the counter's own leaf locks.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use palaemon_crypto::aead::AeadKey;
use palaemon_crypto::randutil;
use palaemon_crypto::sig::{SigningKey, VerifyingKey};
use palaemon_crypto::Digest;
use palaemon_db::{Bytes, ChangeSet, CommitCover, CommitTicket, Db, DbStats, DbView};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use shielded_fs::fs::TagEvent;
use shielded_fs::inject::SecretMap;
use tee_sim::quote::Quote;

use crate::board::{self, ApprovalRequest, PolicyAction, Vote};
use crate::error::{PalaemonError, Result};
use crate::policy::{Policy, SecretKind, ServiceSpec};

/// An attested application session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Raw `(key, value)` database records of one policy — the unit shard
/// migration ships between instances. Records are reference-counted
/// [`Bytes`], so exporting, digesting and shipping them never copies
/// payloads.
pub type PolicyRecords = Vec<(Bytes, Bytes)>;

/// The payload of a [`PolicyDelta`]: either the policy's full record set
/// or just what one mutation changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaPayload {
    /// The policy's full record set. Applying it replaces this replica's
    /// copy wholesale (purge + re-import) and *resets* the policy's delta
    /// chain — the warm-copy catch-up, migration, and resync form. An
    /// empty record set means the policy was deleted.
    Snapshot {
        /// The full record set after the mutation.
        records: PolicyRecords,
    },
    /// Exactly what one mutation wrote and deleted, applied in place — the
    /// steady-state replication form, whose size tracks the mutation
    /// instead of the policy. Keys are disjoint across the two lists.
    Incremental {
        /// Records the mutation wrote (final values).
        puts: PolicyRecords,
        /// Keys the mutation deleted.
        tombstones: Vec<Bytes>,
    },
}

/// A counter-attested replication delta for one policy — the unit a
/// replica group's primary forwards to its followers after applying a
/// mutation (`palaemon-cluster` replication).
///
/// `digest` commits to the policy name, both chain tokens and the entire
/// payload; a follower verifies it before applying
/// ([`Palaemon::apply_policy_delta`]), so a delta corrupted or substituted
/// in transit is rejected. `token` is the group-monotone Fig. 6
/// rollback-counter token of the mutation — "this is the policy's state as
/// of counter value c", the freshness evidence a failover election
/// compares — and `parent` chains an incremental delta to its predecessor:
/// a follower applies an incremental only when `parent` equals its own
/// cursor (the token of the last delta it applied for that policy), so a
/// lost or reordered forward surfaces as
/// [`PalaemonError::DeltaOutOfSequence`] and forces a snapshot resync
/// instead of silent divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDelta {
    /// The policy the delta belongs to.
    pub policy: String,
    /// Group-monotone freshness token of the mutation this delta carries.
    pub token: u64,
    /// Token of the predecessor delta in this policy's chain (0 at chain
    /// start). Checked for incrementals; snapshots reset the chain.
    pub parent: u64,
    /// What to apply.
    pub payload: DeltaPayload,
    /// Digest over policy, token, parent and payload
    /// (see [`PolicyDelta::digest_of`]).
    pub digest: Digest,
}

impl PolicyDelta {
    /// Builds a digest-committed snapshot delta (chain-resetting).
    pub fn snapshot(policy: &str, records: PolicyRecords, token: u64) -> Self {
        let payload = DeltaPayload::Snapshot { records };
        PolicyDelta {
            digest: PolicyDelta::digest_of(policy, token, 0, &payload),
            policy: policy.to_string(),
            token,
            parent: 0,
            payload,
        }
    }

    /// Builds a digest-committed incremental delta from a captured
    /// [`ChangeSet`], chained onto the predecessor token `parent`.
    pub fn incremental(policy: &str, changes: ChangeSet, token: u64, parent: u64) -> Self {
        let (puts, tombstones) = changes.into_parts();
        let payload = DeltaPayload::Incremental { puts, tombstones };
        PolicyDelta {
            digest: PolicyDelta::digest_of(policy, token, parent, &payload),
            policy: policy.to_string(),
            token,
            parent,
            payload,
        }
    }

    /// The commitment digest: length-prefixed hash over the policy name,
    /// the chain tokens, the payload kind and every record, in order.
    pub fn digest_of(policy: &str, token: u64, parent: u64, payload: &DeltaPayload) -> Digest {
        let mut h = palaemon_crypto::sha256::Sha256::new();
        h.update(b"palaemon.policy-delta.v2");
        h.update(&(policy.len() as u64).to_be_bytes());
        h.update(policy.as_bytes());
        h.update(&token.to_be_bytes());
        h.update(&parent.to_be_bytes());
        let mut hash_records = |records: &PolicyRecords| {
            h.update(&(records.len() as u64).to_be_bytes());
            for (k, v) in records {
                h.update(&(k.len() as u64).to_be_bytes());
                h.update(k);
                h.update(&(v.len() as u64).to_be_bytes());
                h.update(v);
            }
        };
        match payload {
            DeltaPayload::Snapshot { records } => {
                hash_records(records);
                h.update(&[1u8]);
            }
            DeltaPayload::Incremental { puts, tombstones } => {
                hash_records(puts);
                h.update(&[2u8]);
                h.update(&(tombstones.len() as u64).to_be_bytes());
                for k in tombstones {
                    h.update(&(k.len() as u64).to_be_bytes());
                    h.update(k);
                }
            }
        }
        h.finalize()
    }

    /// True for the incremental (in-place) form.
    pub fn is_incremental(&self) -> bool {
        matches!(self.payload, DeltaPayload::Incremental { .. })
    }

    /// Approximate bytes this delta would occupy on the wire: keys, values
    /// and the fixed header — what the replication byte counters account.
    pub fn wire_size(&self) -> usize {
        let header = self.policy.len() + 8 + 8 + 32 + 1;
        let body = match &self.payload {
            DeltaPayload::Snapshot { records } => records
                .iter()
                .map(|(k, v)| k.len() + v.len() + 16)
                .sum::<usize>(),
            DeltaPayload::Incremental { puts, tombstones } => {
                puts.iter()
                    .map(|(k, v)| k.len() + v.len() + 16)
                    .sum::<usize>()
                    + tombstones.iter().map(|k| k.len() + 8).sum::<usize>()
            }
        };
        header + body
    }
}

/// One consistent cut of everything a replica needs to converge onto its
/// group's seat ([`Palaemon::replication_snapshot`]): the database as of
/// one [`DbView`] — answering [`ReplicationSnapshot::policy_names`] and
/// [`ReplicationSnapshot::records`] for *any* name, exported on demand —
/// with the session and approval tables captured under the same guard.
#[derive(Clone)]
pub struct ReplicationSnapshot {
    view: DbView,
    /// Every active session, in session-id order.
    pub sessions: Vec<SessionRecord>,
    /// Every pending board-approval round, in nonce order.
    pub approvals: Vec<ApprovalRecord>,
}

impl ReplicationSnapshot {
    /// Names of all policies stored at the cut, in name order.
    pub fn policy_names(&self) -> Vec<String> {
        policy_names_in(&self.view)
    }

    /// The full record set of `name` at the cut (see
    /// [`Palaemon::export_policy_records`]; empty when nothing is held).
    pub fn records(&self, name: &str) -> PolicyRecords {
        export_records_from(&self.view, name)
    }
}

/// An attested session, exported for replication: a replica group mirrors
/// the primary's session table onto its followers so sessions survive a
/// failover (the session stays pinned to the *group*, not to one engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The session id (preserved verbatim on the follower).
    pub session: SessionId,
    /// Policy the session is attested under.
    pub policy: String,
    /// Service within the policy.
    pub service: String,
    /// Volumes granted to the session.
    pub volumes: Vec<String>,
}

/// A pending board-approval round, exported for replication: a replica
/// group mirrors the primary's open rounds (and their single-use nonces)
/// onto its followers, so an in-flight approval survives a failover
/// instead of dying with the primary that issued it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApprovalRecord {
    /// The round's single-use freshness nonce (preserved on the follower).
    pub nonce: u64,
    /// Policy the round covers.
    pub policy_name: String,
    /// Action the board is voting on.
    pub action: PolicyAction,
    /// Digest of the policy content being approved.
    pub policy_digest: Digest,
}

/// A volume handed to an attested application: its encryption key and the
/// tag PALÆMON expects the file system to have.
#[derive(Debug, Clone)]
pub struct VolumeGrant {
    /// Volume name.
    pub volume: String,
    /// File-system encryption key.
    pub key: AeadKey,
    /// Expected tag; `None` for a fresh (never written) volume.
    pub expected_tag: Option<Digest>,
}

/// Everything an attested application receives (paper §IV-A).
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Session for subsequent tag pushes.
    pub session: SessionId,
    /// Command-line arguments (secrets substituted).
    pub args: Vec<String>,
    /// Environment variables (secrets substituted).
    pub env: BTreeMap<String, String>,
    /// Volume keys and expected tags.
    pub volumes: Vec<VolumeGrant>,
    /// Secrets for file injection.
    pub secrets: SecretMap,
    /// Files the runtime must inject secrets into.
    pub injection_files: Vec<String>,
    /// Whether strict mode applies to this service.
    pub strict: bool,
}

#[derive(Debug, Clone)]
struct Session {
    policy: String,
    service: String,
    volumes: Vec<String>,
}

/// Record of a stored tag: the digest plus which event pushed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagRecord {
    /// The expected tag.
    pub tag: Digest,
    /// The event that produced it.
    pub event: TagEvent,
}

fn event_code(e: TagEvent) -> u8 {
    match e {
        TagEvent::FileClose => 1,
        TagEvent::Sync => 2,
        TagEvent::Exit => 3,
    }
}

fn event_from_code(c: u8) -> Option<TagEvent> {
    match c {
        1 => Some(TagEvent::FileClose),
        2 => Some(TagEvent::Sync),
        3 => Some(TagEvent::Exit),
        _ => None,
    }
}

/// Pending board approvals and their freshness nonces (one lock domain).
#[derive(Debug, Default)]
struct ApprovalState {
    pending: HashMap<u64, (String, PolicyAction, Digest)>,
    next_nonce: u64,
}

/// One PALÆMON service instance — a shared, concurrency-safe engine; see
/// the module docs for the lock domains and lock order.
pub struct Palaemon {
    db: RwLock<Db>,
    /// The Fig. 6 cover of a strict shard, installed once by
    /// [`crate::server::TmsServer::with_commit_counter`]: client mutations
    /// stage *covered* by it, so their WAL window's leader increments the
    /// rollback counter before any of them is acknowledged. Unset on a
    /// non-strict engine.
    commit_cover: OnceLock<CommitCover>,
    rng: Mutex<StdRng>,
    identity: SigningKey,
    mrenclave: Digest,
    qe_keys: RwLock<HashMap<String, VerifyingKey>>,
    sessions: RwLock<HashMap<u64, Session>>,
    /// Slot counter for session-id allocation; the id handed out for slot
    /// `n` is `session_domain + n * session_stride`.
    next_session: AtomicU64,
    /// First session id this instance allocates
    /// ([`Palaemon::set_session_id_range`]); 1 when unpartitioned.
    session_domain: AtomicU64,
    /// Distance between consecutive ids this instance allocates; 1 when
    /// unpartitioned.
    session_stride: AtomicU64,
    approvals: Mutex<ApprovalState>,
    /// When set ([`Palaemon::enable_change_capture`]), every mutating
    /// operation records the exact keys it wrote/deleted so replication can
    /// forward incremental deltas instead of full snapshots.
    change_capture: AtomicBool,
    /// Captured-but-not-yet-forwarded changes, keyed by policy (leaf lock;
    /// may be taken while holding `db`).
    pending_changes: Mutex<HashMap<String, ChangeSet>>,
    /// Per-policy replication cursor: the token of the last delta this
    /// replica applied for the policy (leaf lock; may be taken while
    /// holding `db`).
    policy_cursors: Mutex<HashMap<String, u64>>,
}

impl std::fmt::Debug for Palaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Palaemon")
            .field("mrenclave", &self.mrenclave)
            .field("sessions", &self.sessions.read().len())
            .finish()
    }
}

impl Palaemon {
    /// Creates a service instance over an open database.
    ///
    /// `identity` is the instance key pair (restored from sealed storage by
    /// [`crate::instance`]), `mrenclave` the measurement of the PALÆMON
    /// enclave itself, and `seed` drives deterministic secret generation.
    pub fn new(db: Db, identity: SigningKey, mrenclave: Digest, seed: u64) -> Self {
        Palaemon {
            db: RwLock::new(db),
            commit_cover: OnceLock::new(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            identity,
            mrenclave,
            qe_keys: RwLock::new(HashMap::new()),
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            session_domain: AtomicU64::new(1),
            session_stride: AtomicU64::new(1),
            approvals: Mutex::new(ApprovalState {
                pending: HashMap::new(),
                next_nonce: 1,
            }),
            change_capture: AtomicBool::new(false),
            pending_changes: Mutex::new(HashMap::new()),
            policy_cursors: Mutex::new(HashMap::new()),
        }
    }

    /// The instance's public key (what the CA certifies).
    pub fn public_key(&self) -> VerifyingKey {
        self.identity.verifying_key()
    }

    /// The PALÆMON enclave's own measurement.
    pub fn mrenclave(&self) -> Digest {
        self.mrenclave
    }

    /// Signs bytes as this instance (used in CA and attestation flows).
    pub fn sign(&self, bytes: &[u8]) -> palaemon_crypto::sig::Signature {
        self.identity.sign(bytes)
    }

    /// Registers a platform's quoting-enclave key so quotes from it can be
    /// verified (models QE provisioning).
    pub fn register_platform(&self, platform_id: &str, qe_key: VerifyingKey) {
        self.qe_keys.write().insert(platform_id.to_string(), qe_key);
    }

    /// Partitions the session-id space: from here on this instance
    /// allocates ids `domain, domain + stride, domain + 2*stride, …`. A
    /// replica group gives each member a disjoint residue class
    /// (`domain = k + 1`, `stride =` group capacity) so *any* in-quorum
    /// replica can attest sessions without colliding with its peers — the
    /// lever that lets attestation throughput scale with the replication
    /// factor. Defaults to `(1, 1)` (unpartitioned).
    ///
    /// # Panics
    /// When `stride` is zero.
    pub fn set_session_id_range(&self, domain: u64, stride: u64) {
        assert!(stride > 0, "session stride must be non-zero");
        self.session_domain.store(domain, Ordering::Relaxed);
        self.session_stride.store(stride, Ordering::Relaxed);
    }

    fn allocate_session_id(&self) -> SessionId {
        let slot = self.next_session.fetch_add(1, Ordering::Relaxed);
        let domain = self.session_domain.load(Ordering::Relaxed);
        let stride = self.session_stride.load(Ordering::Relaxed);
        SessionId(domain + slot * stride)
    }

    /// Direct access to the underlying database (instance guard, tests).
    /// Requires exclusive ownership — concurrent callers go through the
    /// engine's operations instead.
    pub fn db_mut(&mut self) -> &mut Db {
        self.db.get_mut()
    }

    /// A lock-free point-in-time snapshot of the service database.
    fn db_view(&self) -> DbView {
        self.db.read().view()
    }

    /// The storage engine's runtime statistics (read-only).
    pub fn db_stats(&self) -> DbStats {
        self.db.read().stats()
    }

    /// Makes this a strict engine: from here on every client mutation's
    /// commit is covered by `cover` (see [`Palaemon::stage_commit`]). An
    /// engine takes one cover for life.
    ///
    /// # Panics
    /// When a cover is already installed — two counters cannot both account
    /// for one database's commit windows.
    pub(crate) fn install_commit_cover(&self, cover: CommitCover) {
        assert!(
            self.commit_cover.set(cover).is_ok(),
            "engine already serves a commit counter"
        );
    }

    /// Stages a *client* mutation's commit (called with the db write lock
    /// held, after the mutation's last write): covered by the shard's
    /// rollback counter on a strict engine, plain otherwise. Replication
    /// applies, catch-up and migration stage with `Db::commit_stage`
    /// directly — the mutation was covered where a client submitted it.
    fn stage_commit(&self, db: &mut Db) -> CommitTicket {
        match self.commit_cover.get() {
            Some(cover) => db.commit_stage_covered(cover),
            None => db.commit_stage(),
        }
    }

    /// Turns on change capture: from here on every mutating operation
    /// records the exact keys it wrote/deleted into a per-policy
    /// [`ChangeSet`] the replication layer drains with
    /// [`Palaemon::take_policy_changes`]. Idempotent; off by default, so
    /// unreplicated deployments pay nothing.
    pub fn enable_change_capture(&self) {
        self.change_capture.store(true, Ordering::Release);
    }

    fn capture_on(&self) -> bool {
        self.change_capture.load(Ordering::Relaxed)
    }

    /// Arms write-batch capture on `db` when capture is enabled (called
    /// with the db write lock held, before a mutation's first write).
    fn capture_begin(&self, db: &mut Db) {
        if self.capture_on() {
            db.begin_capture();
        }
    }

    /// Stashes what the just-committed mutation changed under `policy`.
    /// Racing mutations of the same policy merge in commit order (the db
    /// write lock is still held here).
    fn capture_stash(&self, db: &mut Db, policy: &str) {
        if !self.capture_on() {
            return;
        }
        let changes = db.take_changes();
        if changes.is_empty() {
            return;
        }
        self.pending_changes
            .lock()
            .entry(policy.to_string())
            .or_default()
            .merge(changes);
    }

    // ------------------------------------------------------------------
    // Policy CRUD
    // ------------------------------------------------------------------

    /// Starts an approval round: returns the request board members must
    /// sign. The nonce is single-use.
    pub fn begin_approval(
        &self,
        policy_name: &str,
        action: PolicyAction,
        policy_digest: Digest,
    ) -> ApprovalRequest {
        let mut approvals = self.approvals.lock();
        let nonce = approvals.next_nonce;
        approvals.next_nonce += 1;
        approvals
            .pending
            .insert(nonce, (policy_name.to_string(), action, policy_digest));
        ApprovalRequest {
            policy_name: policy_name.to_string(),
            action,
            policy_digest,
            nonce,
        }
    }

    fn consume_approval(
        &self,
        request: &ApprovalRequest,
        board: &crate::policy::BoardSpec,
        votes: &[Vote],
    ) -> Result<()> {
        let pending = self
            .approvals
            .lock()
            .pending
            .remove(&request.nonce)
            .ok_or_else(|| PalaemonError::BoardRejected("unknown or reused nonce".into()))?;
        if pending
            != (
                request.policy_name.clone(),
                request.action,
                request.policy_digest,
            )
        {
            return Err(PalaemonError::BoardRejected(
                "approval request does not match pending operation".into(),
            ));
        }
        board::evaluate(board, request, votes)?;
        Ok(())
    }

    /// Creates a policy. `owner` is the client certificate key that will
    /// control all future accesses. If the policy declares a board, `votes`
    /// must satisfy it for the `request` issued by [`Self::begin_approval`].
    ///
    /// Declared secrets and volume keys are generated here and persisted.
    ///
    /// # Errors
    /// [`PalaemonError::PolicyExists`], [`PalaemonError::BoardRejected`],
    /// or database errors.
    pub fn create_policy(
        &self,
        owner: &VerifyingKey,
        policy: Policy,
        request: Option<&ApprovalRequest>,
        votes: &[Vote],
    ) -> Result<()> {
        Ok(self
            .stage_create_policy(owner, policy, request, votes)?
            .wait()?)
    }

    /// [`Palaemon::create_policy`] up to, not including, the durability
    /// wait: checks, writes and the staged commit under the db write
    /// guard. The policy is visible at once but **durable — and, on a strict
    /// engine, covered by the rollback counter — only once the returned
    /// ticket is redeemed**: the split every `stage_*` mutation below
    /// shares, so a caller can overlap other work (a replication forward)
    /// with the WAL sync.
    ///
    /// # Errors
    /// As for [`Palaemon::create_policy`], minus the commit failures the
    /// ticket reports.
    pub fn stage_create_policy(
        &self,
        owner: &VerifyingKey,
        policy: Policy,
        request: Option<&ApprovalRequest>,
        votes: &[Vote],
    ) -> Result<CommitTicket> {
        policy.validate()?;
        // The write lock is held across the existence check and the insert
        // so two racing creates of the same name cannot both succeed.
        let mut db = self.db.write();
        let key = format!("policy/{}", policy.name);
        if db.get(key.as_bytes()).is_some() {
            return Err(PalaemonError::PolicyExists(policy.name.clone()));
        }
        if let Some(board) = &policy.board {
            let request = request.ok_or_else(|| {
                PalaemonError::BoardRejected("policy has a board; approval required".into())
            })?;
            if request.action != PolicyAction::Create || request.policy_digest != policy.digest() {
                return Err(PalaemonError::BoardRejected(
                    "approval request does not cover this creation".into(),
                ));
            }
            self.consume_approval(request, board, votes)?;
        }
        self.capture_begin(&mut db);

        // Generate secrets.
        let mut rng = self.rng.lock();
        for spec in &policy.secrets {
            let value = match &spec.kind {
                SecretKind::Ascii { length } => {
                    randutil::random_token(&mut *rng, *length).into_bytes()
                }
                SecretKind::Binary { length } => {
                    let mut v = vec![0u8; *length];
                    rng.fill_bytes(&mut v);
                    v
                }
                SecretKind::Explicit { value } => value.clone(),
            };
            db.put(
                format!("secretv/{}/{}", policy.name, spec.name).into_bytes(),
                value.clone(),
            );
            // Exports: make the secret available to target policies. The
            // producer segment keeps same-named secrets from different
            // producers distinct on the consumer side.
            for target in &spec.export_to {
                db.put(
                    format!("export-secret/{}/{}/{}", target, policy.name, spec.name).into_bytes(),
                    value.clone(),
                );
            }
        }
        // Generate volume keys.
        for vol in &policy.volumes {
            let vol_key = AeadKey::generate(&mut *rng);
            db.put(
                format!("volkey/{}/{}", policy.name, vol.name).into_bytes(),
                vol_key.expose_bytes().to_vec(),
            );
            if let Some(target) = &vol.export_to {
                db.put(
                    format!("export-volume/{}/{}/{}", target, policy.name, vol.name).into_bytes(),
                    vol_key.expose_bytes().to_vec(),
                );
            }
        }
        drop(rng);

        db.put(key.into_bytes(), policy.encode());
        db.put(
            format!("owner/{}", policy.name).into_bytes(),
            owner.to_u64().to_be_bytes().to_vec(),
        );
        let ticket = self.stage_commit(&mut db);
        self.capture_stash(&mut db, &policy.name);
        // Release the write guard first, so the locals declared under it
        // are not torn down inside the critical section (every `stage_*`).
        drop(db);
        Ok(ticket)
    }

    /// Reads a policy. Requires the owner's key and, when a board exists,
    /// an approved `Read` request.
    ///
    /// # Errors
    /// [`PalaemonError::PolicyNotFound`], [`PalaemonError::NotAuthorized`],
    /// [`PalaemonError::BoardRejected`].
    pub fn read_policy(
        &self,
        name: &str,
        client: &VerifyingKey,
        request: Option<&ApprovalRequest>,
        votes: &[Vote],
    ) -> Result<Policy> {
        // Hot read path: snapshot, then no db lock held.
        let view = self.db_view();
        authorize(&view, name, client)?;
        let policy = load_policy(&view, name)?;
        if let Some(board) = &policy.board {
            let request = request.ok_or_else(|| {
                PalaemonError::BoardRejected("policy has a board; approval required".into())
            })?;
            self.consume_approval(request, board, votes)?;
        }
        Ok(policy)
    }

    /// Updates a policy (same name). The *existing* board must approve the
    /// digest of the *new* content — this is the secure-update path.
    ///
    /// New secrets/volumes are generated; removed ones are deleted.
    ///
    /// # Errors
    /// [`PalaemonError::PolicyNotFound`], [`PalaemonError::NotAuthorized`],
    /// [`PalaemonError::BoardRejected`], parse/db errors.
    pub fn update_policy(
        &self,
        client: &VerifyingKey,
        new_policy: Policy,
        request: Option<&ApprovalRequest>,
        votes: &[Vote],
    ) -> Result<()> {
        Ok(self
            .stage_update_policy(client, new_policy, request, votes)?
            .wait()?)
    }

    /// [`Palaemon::update_policy`] without the durability wait (see
    /// [`Palaemon::stage_create_policy`]); same errors, minus the commit's.
    pub fn stage_update_policy(
        &self,
        client: &VerifyingKey,
        new_policy: Policy,
        request: Option<&ApprovalRequest>,
        votes: &[Vote],
    ) -> Result<CommitTicket> {
        new_policy.validate()?;
        let name = new_policy.name.clone();
        let mut db = self.db.write();
        let current = {
            // The view is dropped before mutating so the writes below do
            // not pay a copy-on-write of the table.
            let view = db.view();
            authorize(&view, &name, client)?;
            load_policy(&view, &name)?
        };
        if let Some(board) = &current.board {
            let request = request.ok_or_else(|| {
                PalaemonError::BoardRejected("policy has a board; approval required".into())
            })?;
            if request.action != PolicyAction::Update
                || request.policy_digest != new_policy.digest()
            {
                return Err(PalaemonError::BoardRejected(
                    "approval request does not cover this update".into(),
                ));
            }
            self.consume_approval(request, board, votes)?;
        }
        self.capture_begin(&mut db);

        // Generate material for newly declared secrets; keep existing ones
        // so updates do not rotate application secrets implicitly. Export
        // rows are rewritten unconditionally (idempotent puts): on a
        // promoted or resynced replica the rows under *other* policies'
        // prefixes may be missing, and this rewrite is what heals them —
        // it is also the scan source the cluster's cross-shard export
        // forwarder diffs against.
        let mut rng = self.rng.lock();
        for spec in &new_policy.secrets {
            let key = format!("secretv/{}/{}", name, spec.name);
            let value = match db.get(key.as_bytes()) {
                Some(v) => v.to_vec(),
                None => {
                    let value = match &spec.kind {
                        SecretKind::Ascii { length } => {
                            randutil::random_token(&mut *rng, *length).into_bytes()
                        }
                        SecretKind::Binary { length } => {
                            let mut v = vec![0u8; *length];
                            rng.fill_bytes(&mut v);
                            v
                        }
                        SecretKind::Explicit { value } => value.clone(),
                    };
                    db.put(key.into_bytes(), value.clone());
                    value
                }
            };
            for target in &spec.export_to {
                db.put(
                    format!("export-secret/{target}/{name}/{}", spec.name).into_bytes(),
                    value.clone(),
                );
            }
        }
        // Drop secrets no longer declared (with their export rows), and
        // export rows whose target the new spec no longer lists.
        for old in &current.secrets {
            let kept = new_policy.secrets.iter().find(|s| s.name == old.name);
            if kept.is_none() {
                db.delete(format!("secretv/{}/{}", name, old.name).as_bytes());
            }
            for target in &old.export_to {
                let still_exported = kept
                    .map(|s| s.export_to.iter().any(|t| t == target))
                    .unwrap_or(false);
                if !still_exported {
                    db.delete(format!("export-secret/{target}/{name}/{}", old.name).as_bytes());
                }
            }
        }
        // New volumes get keys; export rows are rewritten like secrets'.
        for vol in &new_policy.volumes {
            let key = format!("volkey/{}/{}", name, vol.name);
            let key_bytes = match db.get(key.as_bytes()) {
                Some(v) => v.to_vec(),
                None => {
                    let vol_key = AeadKey::generate(&mut *rng);
                    let bytes = vol_key.expose_bytes().to_vec();
                    db.put(key.into_bytes(), bytes.clone());
                    bytes
                }
            };
            if let Some(target) = &vol.export_to {
                db.put(
                    format!("export-volume/{target}/{name}/{}", vol.name).into_bytes(),
                    key_bytes,
                );
            }
        }
        // Export rows for re-targeted or no-longer-exported volumes.
        for old in &current.volumes {
            if let Some(target) = &old.export_to {
                let still_exported = new_policy
                    .volumes
                    .iter()
                    .any(|v| v.name == old.name && v.export_to.as_ref() == Some(target));
                if !still_exported {
                    db.delete(format!("export-volume/{target}/{name}/{}", old.name).as_bytes());
                }
            }
        }
        drop(rng);

        db.put(format!("policy/{name}").into_bytes(), new_policy.encode());
        let ticket = self.stage_commit(&mut db);
        self.capture_stash(&mut db, &name);
        drop(db);
        Ok(ticket)
    }

    /// Deletes a policy and all of its material.
    ///
    /// # Errors
    /// [`PalaemonError::PolicyNotFound`], [`PalaemonError::NotAuthorized`],
    /// [`PalaemonError::BoardRejected`].
    pub fn delete_policy(
        &self,
        name: &str,
        client: &VerifyingKey,
        request: Option<&ApprovalRequest>,
        votes: &[Vote],
    ) -> Result<()> {
        Ok(self
            .stage_delete_policy(name, client, request, votes)?
            .wait()?)
    }

    /// [`Palaemon::delete_policy`] without the durability wait (see
    /// [`Palaemon::stage_create_policy`]); same errors, minus the commit's.
    pub fn stage_delete_policy(
        &self,
        name: &str,
        client: &VerifyingKey,
        request: Option<&ApprovalRequest>,
        votes: &[Vote],
    ) -> Result<CommitTicket> {
        let mut db = self.db.write();
        let policy = {
            let view = db.view();
            authorize(&view, name, client)?;
            load_policy(&view, name)?
        };
        if let Some(board) = &policy.board {
            let request = request.ok_or_else(|| {
                PalaemonError::BoardRejected("policy has a board; approval required".into())
            })?;
            if request.action != PolicyAction::Delete {
                return Err(PalaemonError::BoardRejected("wrong action".into()));
            }
            self.consume_approval(request, board, votes)?;
        }
        self.capture_begin(&mut db);
        // Exact keys for the two singleton records (a bare `policy/{name}`
        // prefix would also match `policy/{name}-suffix` siblings), prefix
        // deletes for the per-policy namespaces.
        db.delete(format!("policy/{name}").as_bytes());
        db.delete(format!("owner/{name}").as_bytes());
        for prefix in policy_record_prefixes(name) {
            db.delete_prefix(prefix.as_bytes());
        }
        // Records this policy exported *to others* live under the targets'
        // prefixes and must not outlive their producer.
        for spec in &policy.secrets {
            for target in &spec.export_to {
                db.delete(format!("export-secret/{target}/{name}/{}", spec.name).as_bytes());
            }
        }
        for vol in &policy.volumes {
            if let Some(target) = &vol.export_to {
                db.delete(format!("export-volume/{target}/{name}/{}", vol.name).as_bytes());
            }
        }
        let ticket = self.stage_commit(&mut db);
        self.capture_stash(&mut db, name);
        drop(db);
        Ok(ticket)
    }

    /// Number of stored policies.
    pub fn policy_count(&self) -> usize {
        let view = self.db_view();
        view.scan_prefix(b"policy/").count()
    }

    // ------------------------------------------------------------------
    // Attestation & configuration (paper §IV-A)
    // ------------------------------------------------------------------

    /// Attests an application and, on success, returns its configuration.
    ///
    /// `tls_key_binding` is the value the application placed in the quote's
    /// report data (hash of its fresh TLS public key); passing it separately
    /// models PALÆMON checking that the TLS channel endpoint and the
    /// attested enclave are the same entity.
    ///
    /// # Errors
    /// [`PalaemonError::AttestationFailed`] for any verification failure,
    /// [`PalaemonError::StrictModeViolation`] when strict mode blocks a
    /// restart after an unclean shutdown.
    pub fn attest_service(
        &self,
        quote: &Quote,
        tls_key_binding: &[u8; 64],
        policy_name: &str,
        service_name: &str,
    ) -> Result<AppConfig> {
        // 1. Quote must verify against the registered QE key (the leaf lock
        //    is released before the signature check runs).
        let qe_key = self
            .qe_keys
            .read()
            .get(&quote.platform_id)
            .cloned()
            .ok_or_else(|| {
                PalaemonError::AttestationFailed(format!(
                    "unknown platform '{}'",
                    quote.platform_id
                ))
            })?;
        quote
            .verify(&qe_key)
            .map_err(|e| PalaemonError::AttestationFailed(e.to_string()))?;
        // 2. TLS channel binding.
        if &quote.report_data != tls_key_binding {
            return Err(PalaemonError::AttestationFailed(
                "report data does not bind the TLS key".into(),
            ));
        }
        // 3. Policy and service lookup — everything below reads from one
        //    consistent snapshot, without holding the db lock.
        let view = self.db_view();
        let policy = load_policy(&view, policy_name)
            .map_err(|_| PalaemonError::AttestationFailed(format!("no policy '{policy_name}'")))?;
        let service = policy
            .service(service_name)
            .ok_or_else(|| {
                PalaemonError::AttestationFailed(format!("no service '{service_name}'"))
            })?
            .clone();
        // 4. MRENCLAVE allowed?
        let allowed = effective_mrenclaves(&view, &service)?;
        if !allowed.contains(&quote.mrenclave) {
            return Err(PalaemonError::AttestationFailed(format!(
                "MRENCLAVE {} not permitted for service '{service_name}'",
                quote.mrenclave
            )));
        }
        // 5. Platform allowed?
        if !service.platforms.is_empty()
            && !service.platforms.iter().any(|p| p == &quote.platform_id)
        {
            return Err(PalaemonError::AttestationFailed(format!(
                "platform '{}' not permitted",
                quote.platform_id
            )));
        }
        // 6. Strict mode: last run must have exited cleanly.
        if policy.strict {
            for vol in &service.volumes {
                if let Some(rec) = tag_record(&view, policy_name, vol) {
                    if rec.event != TagEvent::Exit {
                        return Err(PalaemonError::StrictModeViolation(format!(
                            "volume '{vol}' tag was pushed by {:?}, not a clean exit; \
                             policy update required",
                            rec.event
                        )));
                    }
                }
            }
        }

        // Collect secrets: own + imported.
        let mut secrets: SecretMap = SecretMap::new();
        for spec in &policy.secrets {
            if let Some(v) = view.get(format!("secretv/{}/{}", policy_name, spec.name).as_bytes()) {
                secrets.insert(spec.name.clone(), v.to_vec());
            }
        }
        for (k, v) in view.scan_prefix(format!("export-secret/{policy_name}/").as_bytes()) {
            let name = String::from_utf8_lossy(k)
                .rsplit('/')
                .next()
                .unwrap_or_default()
                .to_string();
            secrets.entry(name).or_insert_with(|| v.to_vec());
        }

        // Volumes: own keys or imported ones.
        let mut volumes = Vec::new();
        for vol in &service.volumes {
            let key_bytes = view
                .get(format!("volkey/{policy_name}/{vol}").as_bytes())
                .map(|v| v.to_vec())
                .or_else(|| {
                    policy
                        .imports
                        .iter()
                        .find(|i| &i.volume == vol)
                        .and_then(|imp| {
                            view.get(
                                format!("export-volume/{policy_name}/{}/{vol}", imp.policy)
                                    .as_bytes(),
                            )
                            .map(|v| v.to_vec())
                        })
                })
                .ok_or_else(|| {
                    PalaemonError::AttestationFailed(format!("no key for volume '{vol}'"))
                })?;
            let arr: [u8; 32] = key_bytes
                .try_into()
                .map_err(|_| PalaemonError::Db("volume key corrupt".into()))?;
            volumes.push(VolumeGrant {
                volume: vol.clone(),
                key: AeadKey::from_bytes(arr),
                expected_tag: tag_record(&view, policy_name, vol).map(|r| r.tag),
            });
        }

        // Args and env with secret substitution.
        let args: Vec<String> = service
            .command
            .split_whitespace()
            .map(|a| substitute(a, &secrets))
            .collect();
        let env: BTreeMap<String, String> = service
            .env
            .iter()
            .map(|(k, v)| (k.clone(), substitute(v, &secrets)))
            .collect();

        let session = self.allocate_session_id();
        self.sessions.write().insert(
            session.0,
            Session {
                policy: policy_name.to_string(),
                service: service_name.to_string(),
                volumes: service.volumes.clone(),
            },
        );

        Ok(AppConfig {
            session,
            args,
            env,
            volumes,
            secrets,
            injection_files: service.injection_files.clone(),
            strict: policy.strict,
        })
    }

    // ------------------------------------------------------------------
    // Tag service (rollback protection for applications)
    // ------------------------------------------------------------------

    /// Stores the expected tag for a volume, pushed by an attested session.
    /// This is the durable (committed) path.
    ///
    /// # Errors
    /// [`PalaemonError::NoSuchSession`] for unknown sessions or volumes not
    /// granted to the session; database errors.
    pub fn push_tag(
        &self,
        session: SessionId,
        volume: &str,
        tag: Digest,
        event: TagEvent,
    ) -> Result<()> {
        Ok(self.stage_push_tag(session, volume, tag, event)?.wait()?)
    }

    /// [`Palaemon::push_tag`] without the durability wait (see
    /// [`Palaemon::stage_create_policy`]); same errors, minus the commit's.
    pub fn stage_push_tag(
        &self,
        session: SessionId,
        volume: &str,
        tag: Digest,
        event: TagEvent,
    ) -> Result<CommitTicket> {
        // The session table is a leaf lock: resolve and release before
        // taking the db write lock.
        let policy = {
            let sessions = self.sessions.read();
            let sess = sessions
                .get(&session.0)
                .ok_or(PalaemonError::NoSuchSession)?;
            if !sess.volumes.iter().any(|v| v == volume) {
                return Err(PalaemonError::NoSuchSession);
            }
            sess.policy.clone()
        };
        let mut value = tag.as_bytes().to_vec();
        value.push(event_code(event));
        let mut db = self.db.write();
        self.capture_begin(&mut db);
        db.put(format!("tag/{policy}/{volume}").into_bytes(), value);
        let ticket = self.stage_commit(&mut db);
        self.capture_stash(&mut db, &policy);
        drop(db);
        Ok(ticket)
    }

    /// Reads the expected tag for a session's volume (fast path, no disk —
    /// served from a lock-free snapshot so it runs in parallel with
    /// writers).
    ///
    /// # Errors
    /// [`PalaemonError::NoSuchSession`].
    pub fn read_tag(&self, session: SessionId, volume: &str) -> Result<Option<TagRecord>> {
        let policy = {
            let sessions = self.sessions.read();
            sessions
                .get(&session.0)
                .ok_or(PalaemonError::NoSuchSession)?
                .policy
                .clone()
        };
        Ok(tag_record(&self.db_view(), &policy, volume))
    }

    /// Administratively resets a volume tag (the paper's "explicit policy
    /// update" needed to restart a strict-mode app after a crash). The
    /// caller must have taken the board-approved update path first.
    ///
    /// # Errors
    /// Database errors.
    pub fn reset_tag(&self, policy: &str, volume: &str) -> Result<()> {
        Ok(self.stage_reset_tag(policy, volume).wait()?)
    }

    /// [`Palaemon::reset_tag`] without the durability wait (see
    /// [`Palaemon::stage_create_policy`]).
    pub fn stage_reset_tag(&self, policy: &str, volume: &str) -> CommitTicket {
        let mut db = self.db.write();
        self.capture_begin(&mut db);
        db.delete(format!("tag/{policy}/{volume}").as_bytes());
        let ticket = self.stage_commit(&mut db);
        self.capture_stash(&mut db, policy);
        drop(db);
        ticket
    }

    /// Ends a session (the application exited).
    pub fn close_session(&self, session: SessionId) {
        self.sessions.write().remove(&session.0);
    }

    /// Active session count.
    pub fn session_count(&self) -> usize {
        self.sessions.read().len()
    }

    // ------------------------------------------------------------------
    // Shard-migration plumbing (used by `palaemon-cluster`)
    // ------------------------------------------------------------------

    /// Names of all stored policies, from one consistent snapshot.
    pub fn policy_names(&self) -> Vec<String> {
        policy_names_in(&self.db_view())
    }

    /// Exports every database record belonging to policy `name` (the policy
    /// itself, its owner, secrets, volume keys, tags, and secrets/volumes
    /// exported *to* it) from one consistent snapshot. Export rows pre-landed
    /// for a consumer that does not exist yet are records of that name like
    /// any other. Returns an empty vector when nothing is held under the
    /// name — a migration racing a delete must treat that as "nothing to
    /// move", not an error.
    pub fn export_policy_records(&self, name: &str) -> PolicyRecords {
        export_records_from(&self.db_view(), name)
    }

    /// Removes every record belonging to policy `name` without the CRUD
    /// authorization checks — the migration-source half of a shard handoff
    /// (the policy now lives elsewhere; this instance must stop serving it).
    ///
    /// # Errors
    /// Database commit failures.
    pub fn purge_policy_records(&self, name: &str) -> Result<()> {
        Ok(self.stage_policy_records(name, &[]).wait()?)
    }

    /// Replaces this instance's copy of policy `name` with `records` (none:
    /// a purge) as **one** staged commit under one db write guard — a crash
    /// reopens with the old or the new record set, never with neither — and
    /// returns the window's ticket: callers re-basing several policies stage
    /// them all, then redeem, and pay one sync.
    pub fn stage_policy_records(&self, name: &str, records: &[(Bytes, Bytes)]) -> CommitTicket {
        self.replace_records(&mut self.db.write(), name, records)
    }

    fn replace_records(&self, db: &mut Db, name: &str, records: &[(Bytes, Bytes)]) -> CommitTicket {
        db.delete(format!("policy/{name}").as_bytes());
        db.delete(format!("owner/{name}").as_bytes());
        for prefix in policy_record_prefixes(name) {
            db.delete_prefix(prefix.as_bytes());
        }
        for (key, value) in records {
            db.put(key.clone(), value.clone());
        }
        // The copy was re-based outside the delta chain: the chain restarts
        // and any captured-but-unforwarded changes are void (forwarding
        // residue from before a purge would roll the new owner's records
        // back).
        self.policy_cursors.lock().remove(name);
        self.pending_changes.lock().remove(name);
        db.commit_stage()
    }

    /// Sessions currently attested under policy `name`. A migration closes
    /// these on the source instance: sessions are pinned to the instance
    /// that attested them, so moving a policy forces its applications to
    /// re-attest against the new owner.
    pub fn sessions_for_policy(&self, name: &str) -> Vec<SessionId> {
        self.sessions
            .read()
            .iter()
            .filter(|(_, sess)| sess.policy == name)
            .map(|(&id, _)| SessionId(id))
            .collect()
    }

    // ------------------------------------------------------------------
    // Cross-shard export plumbing (used by `palaemon-cluster` forwarding)
    // ------------------------------------------------------------------

    /// The export records policy `producer` has materialized for consumer
    /// policy `target` on this instance — the
    /// `export-secret/{target}/{producer}/…` and
    /// `export-volume/{target}/{producer}/…` rows, from one snapshot. The
    /// cluster router diffs this against the target's owning shard to
    /// forward cross-shard exports.
    pub fn export_records_for(&self, target: &str, producer: &str) -> PolicyRecords {
        let view = self.db_view();
        let mut records = Vec::new();
        for prefix in [
            format!("export-secret/{target}/{producer}/"),
            format!("export-volume/{target}/{producer}/"),
        ] {
            records.extend(view.export_prefix(prefix.as_bytes()));
        }
        records
    }

    /// Applies forwarded export records for consumer policy `target` as
    /// one committed batch — a client mutation of this engine, so on a
    /// strict shard it is covered by the rollback counter like any other —
    /// attributed to `target`'s change capture so the rows ride `target`'s
    /// incremental-delta chain to this group's followers. An empty batch is
    /// a no-op (no spurious delta, nothing counted).
    ///
    /// # Errors
    /// Database commit failures.
    pub fn apply_export_records(
        &self,
        target: &str,
        puts: &PolicyRecords,
        tombstones: &[Bytes],
    ) -> Result<()> {
        if puts.is_empty() && tombstones.is_empty() {
            return Ok(());
        }
        let mut db = self.db.write();
        self.capture_begin(&mut db);
        for (key, value) in puts {
            db.put(key.clone(), value.clone());
        }
        for key in tombstones {
            db.delete(key);
        }
        let ticket = self.stage_commit(&mut db);
        self.capture_stash(&mut db, target);
        drop(db);
        ticket.wait()?;
        Ok(())
    }

    /// The export targets policy `name` declares, deduplicated (empty when
    /// the policy is not stored here).
    pub fn export_targets(&self, name: &str) -> Vec<String> {
        load_policy(&self.db_view(), name)
            .map(|p| p.export_targets())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Replication plumbing (used by `palaemon-cluster` replica groups)
    // ------------------------------------------------------------------

    /// The policy a session is attested under. A replica group's primary
    /// uses this to turn a session-keyed mutation (tag push) into the
    /// policy-keyed delta it forwards to its followers.
    pub fn policy_of_session(&self, session: SessionId) -> Option<String> {
        self.sessions
            .read()
            .get(&session.0)
            .map(|s| s.policy.clone())
    }

    /// Drains the captured-but-unforwarded changes of `policy` (what every
    /// mutation since the last drain wrote/deleted, coalesced per key).
    /// `None` when nothing is pending — e.g. another forwarding thread
    /// already drained the racing mutation, or capture is off.
    pub fn take_policy_changes(&self, policy: &str) -> Option<ChangeSet> {
        self.pending_changes.lock().remove(policy)
    }

    /// This replica's cursor for `policy`: the token of the last
    /// replication delta it applied, if any.
    pub fn policy_cursor(&self, policy: &str) -> Option<u64> {
        self.policy_cursors.lock().get(policy).copied()
    }

    /// Records that this engine's own (locally applied) mutation left as
    /// the delta carrying `token`: the forwarding router keeps the
    /// primary's cursor in step with its followers, so chain completeness
    /// is comparable across the whole group when a failover election runs.
    pub fn advance_policy_cursor(&self, policy: &str, token: u64) {
        self.policy_cursors.lock().insert(policy.to_string(), token);
    }

    /// Forgets the chain cursor of one policy: its group's chain holds no
    /// entry for it (re-based by a migration, or never replicated), and a
    /// cursor the absent tail disagrees with would fail the replica's
    /// freshness checks forever — or, *ahead* of a later snapshot's token,
    /// veto it (the backwards-rollback guard in
    /// [`Palaemon::stage_policy_delta`]).
    pub fn clear_policy_cursor(&self, policy: &str) {
        self.policy_cursors.lock().remove(policy);
    }

    /// Drops every captured-but-unforwarded change without touching the
    /// chain cursors. A replica being rebuilt must not later forward
    /// residue from its previous life, but its cursors must survive: they
    /// are what the repair ladder compares to skip in-sync policies.
    pub fn clear_captured_changes(&self) {
        self.pending_changes.lock().clear();
    }

    /// Exports one policy's full record set as a digest-committed
    /// chain-resetting snapshot [`PolicyDelta`] carrying freshness token
    /// `token`. An empty record set means the policy does not exist — the
    /// delta then *deletes* on apply.
    pub fn export_policy_snapshot(&self, name: &str, token: u64) -> PolicyDelta {
        PolicyDelta::snapshot(name, self.export_policy_records(name), token)
    }

    /// Content digest of one policy's full stored record set — the
    /// anti-entropy comparison value a cluster monitor pairs with the
    /// replica's chain cursor. Length-prefixed over the policy name and
    /// every record in storage order under a dedicated domain tag, so
    /// two replicas report equal digests exactly when their stored bytes
    /// for the policy are identical; an absent policy digests the empty
    /// record set (still name-bound, so digests of different policies
    /// never collide by construction).
    pub fn policy_digest(&self, name: &str) -> Digest {
        records_digest(name, &self.export_policy_records(name))
    }

    /// Applies a [`PolicyDelta`] produced by another replica after
    /// verifying its commitment digest, and waits for it to be durable:
    /// [`Palaemon::stage_policy_delta`] + [`CommitTicket::wait`].
    ///
    /// # Errors
    /// As for [`Palaemon::stage_policy_delta`]; database commit failures.
    pub fn apply_policy_delta(&self, delta: &PolicyDelta) -> Result<()> {
        Ok(self.stage_policy_delta(delta)?.wait()?)
    }

    /// Verifies a [`PolicyDelta`]'s commitment digest and chain position,
    /// applies it to the visible tree and stages it into the group-commit
    /// window — all under the db write guard — returning the window's
    /// ticket. The delta is visible at once but **durable only once the
    /// ticket is redeemed**; a replication sender stages every delta of a
    /// shipped window and redeems afterwards, so the window costs one sync.
    ///
    /// * A **snapshot** replaces this instance's copy of the policy
    ///   wholesale (purge + import as one commit; an empty record set is a
    ///   delete) and resets the policy's chain cursor to the delta's token.
    /// * An **incremental** applies in place, but only when its `parent`
    ///   equals this replica's cursor for the policy — a lost or reordered
    ///   forward breaks the chain and is rejected, never silently applied.
    ///
    /// # Errors
    /// [`PalaemonError::Db`] when the digest does not match the payload
    /// (corrupted or substituted delta);
    /// [`PalaemonError::DeltaOutOfSequence`] when an incremental does not
    /// chain onto the cursor (the sender must resync with a snapshot).
    pub fn stage_policy_delta(&self, delta: &PolicyDelta) -> Result<CommitTicket> {
        if PolicyDelta::digest_of(&delta.policy, delta.token, delta.parent, &delta.payload)
            != delta.digest
        {
            return Err(PalaemonError::Db(format!(
                "policy delta for '{}' failed its digest check",
                delta.policy
            )));
        }
        let out_of_sequence = |expected, got| PalaemonError::DeltaOutOfSequence {
            policy: delta.policy.clone(),
            expected,
            got,
        };
        let mut db = self.db.write();
        let cursor = self.policy_cursors.lock().get(&delta.policy).copied();
        let ticket = match &delta.payload {
            DeltaPayload::Snapshot { records } => {
                // A snapshot may re-base the chain *forward* (resync,
                // catch-up) but never backwards: a late or reordered
                // snapshot carrying an older token must not roll this
                // replica's records back under a fresh-looking facade.
                if let Some(cursor) = cursor.filter(|&c| delta.token < c) {
                    return Err(out_of_sequence(cursor, delta.token));
                }
                self.replace_records(&mut db, &delta.policy, records)
            }
            DeltaPayload::Incremental { puts, tombstones } => {
                let cursor = cursor.unwrap_or(0);
                if cursor != delta.parent {
                    return Err(out_of_sequence(cursor, delta.parent));
                }
                for (key, value) in puts {
                    db.put(key.clone(), value.clone());
                }
                for key in tombstones {
                    db.delete(key);
                }
                // A follower must never re-forward what it applied: clear
                // any capture residue for the policy (e.g. from a stint as
                // a deposed primary).
                self.pending_changes.lock().remove(&delta.policy);
                db.commit_stage()
            }
        };
        self.policy_cursors
            .lock()
            .insert(delta.policy.clone(), delta.token);
        Ok(ticket)
    }

    /// One consistent cut for replica convergence: a database view, the
    /// session table and the pending approval rounds, all taken while a
    /// **single** database guard is held (the session and approval tables
    /// are captured before the guard drops, so a concurrent mutation cannot
    /// land between them). Record sets are exported from the view on
    /// demand, so a repair that skips a policy never pays for its export —
    /// and, unlike per-policy exports from the live engine, whatever it does
    /// export cannot interleave with a racing mutation.
    pub fn replication_snapshot(&self) -> ReplicationSnapshot {
        let db = self.db.read();
        // `sessions` is a leaf lock and `approvals` orders after `db`:
        // capturing both under the db guard is within the documented lock
        // order.
        ReplicationSnapshot {
            view: db.view(),
            sessions: self.export_sessions(),
            approvals: self.export_approvals(),
        }
    }

    /// Exports one session for mirroring onto a follower replica.
    pub fn export_session(&self, session: SessionId) -> Option<SessionRecord> {
        self.sessions.read().get(&session.0).map(|s| SessionRecord {
            session,
            policy: s.policy.clone(),
            service: s.service.clone(),
            volumes: s.volumes.clone(),
        })
    }

    /// Exports every active session, in session-id order (replica catch-up
    /// copies the whole table).
    pub fn export_sessions(&self) -> Vec<SessionRecord> {
        let sessions = self.sessions.read();
        let mut ids: Vec<u64> = sessions.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let s = &sessions[&id];
                SessionRecord {
                    session: SessionId(id),
                    policy: s.policy.clone(),
                    service: s.service.clone(),
                    volumes: s.volumes.clone(),
                }
            })
            .collect()
    }

    /// Installs a session exported from another replica, preserving its id,
    /// and keeps this instance's id allocator ahead of it — after a
    /// failover the promoted replica must never re-issue a mirrored id.
    /// Only ids in this instance's own residue class
    /// ([`Palaemon::set_session_id_range`]) advance the allocator: a peer's
    /// ids cannot collide with ours and must not inflate the slot counter.
    pub fn import_session(&self, record: &SessionRecord) {
        self.sessions.write().insert(
            record.session.0,
            Session {
                policy: record.policy.clone(),
                service: record.service.clone(),
                volumes: record.volumes.clone(),
            },
        );
        let domain = self.session_domain.load(Ordering::Relaxed);
        let stride = self.session_stride.load(Ordering::Relaxed);
        let id = record.session.0;
        if id >= domain && (id - domain).is_multiple_of(stride) {
            self.next_session
                .fetch_max((id - domain) / stride + 1, Ordering::Relaxed);
        }
    }

    /// Exports one pending approval round for mirroring onto a follower.
    /// `None` when the nonce is not pending (consumed, discarded, or never
    /// issued here).
    pub fn export_approval(&self, nonce: u64) -> Option<ApprovalRecord> {
        self.approvals
            .lock()
            .pending
            .get(&nonce)
            .map(|(policy_name, action, policy_digest)| ApprovalRecord {
                nonce,
                policy_name: policy_name.clone(),
                action: *action,
                policy_digest: *policy_digest,
            })
    }

    /// Exports every pending approval round, in nonce order (replica
    /// catch-up copies the whole table).
    pub fn export_approvals(&self) -> Vec<ApprovalRecord> {
        let approvals = self.approvals.lock();
        let mut nonces: Vec<u64> = approvals.pending.keys().copied().collect();
        nonces.sort_unstable();
        nonces
            .into_iter()
            .map(|nonce| {
                let (policy_name, action, policy_digest) = &approvals.pending[&nonce];
                ApprovalRecord {
                    nonce,
                    policy_name: policy_name.clone(),
                    action: *action,
                    policy_digest: *policy_digest,
                }
            })
            .collect()
    }

    /// Installs an approval round exported from another replica, preserving
    /// its nonce, and keeps this instance's nonce counter ahead of it — a
    /// promoted replica must never re-issue a mirrored nonce.
    pub fn import_approval(&self, record: &ApprovalRecord) {
        let mut approvals = self.approvals.lock();
        approvals.pending.insert(
            record.nonce,
            (
                record.policy_name.clone(),
                record.action,
                record.policy_digest,
            ),
        );
        approvals.next_nonce = approvals.next_nonce.max(record.nonce + 1);
    }

    /// Forgets a pending approval round: the primary consumed (or burned)
    /// its nonce, so the nonce must become unusable group-wide.
    pub fn discard_approval(&self, nonce: u64) {
        self.approvals.lock().pending.remove(&nonce);
    }
}

/// Content digest of one policy's record set under the anti-entropy
/// domain tag — the body of [`Palaemon::policy_digest`], factored so a
/// catch-up source can digest records it already exported (one consistent
/// cut, no second export) and compare against the target's digest.
pub fn records_digest(name: &str, records: &[(Bytes, Bytes)]) -> Digest {
    let mut h = palaemon_crypto::sha256::Sha256::new();
    h.update(b"palaemon.policy-records.v1");
    h.update(&(name.len() as u64).to_be_bytes());
    h.update(name.as_bytes());
    h.update(&(records.len() as u64).to_be_bytes());
    for (k, v) in records {
        h.update(&(k.len() as u64).to_be_bytes());
        h.update(k);
        h.update(&(v.len() as u64).to_be_bytes());
        h.update(v);
    }
    h.finalize()
}

/// Names of all policies stored in `view`, in name order.
fn policy_names_in(view: &DbView) -> Vec<String> {
    view.scan_prefix(b"policy/")
        .map(|(k, _)| String::from_utf8_lossy(&k[b"policy/".len()..]).into_owned())
        .collect()
}

/// Exports every record held under policy name `name` from one [`DbView`]
/// snapshot (the body of [`Palaemon::export_policy_records`], reusable
/// against a shared view so multi-policy exports stay consistent). No
/// `policy/{name}` row is required: export rows pre-landed for a consumer
/// that is yet to be created are exactly such a record set.
fn export_records_from(view: &DbView, name: &str) -> PolicyRecords {
    let mut records = PolicyRecords::new();
    for key in [format!("policy/{name}"), format!("owner/{name}")] {
        if let Some(raw) = view.get(key.as_bytes()) {
            records.push((Bytes::from(key.into_bytes()), Bytes::from(raw)));
        }
    }
    for prefix in policy_record_prefixes(name) {
        records.extend(view.export_prefix(prefix.as_bytes()));
    }
    records
}

/// The slash-terminated key prefixes holding a policy's non-singleton
/// records (`policy/{name}` and `owner/{name}` are exact keys handled
/// separately — a bare prefix would also match `{name}-suffix` siblings).
fn policy_record_prefixes(name: &str) -> [String; 5] {
    [
        format!("secretv/{name}/"),
        format!("volkey/{name}/"),
        format!("tag/{name}/"),
        format!("export-secret/{name}/"),
        format!("export-volume/{name}/"),
    ]
}

// ----------------------------------------------------------------------
// Snapshot-based lookups: these run on a detached [`DbView`], so read
// paths never hold the database lock while doing real work.
// ----------------------------------------------------------------------

fn authorize(view: &DbView, name: &str, client: &VerifyingKey) -> Result<()> {
    let owner_raw = view
        .get(format!("owner/{name}").as_bytes())
        .ok_or_else(|| PalaemonError::PolicyNotFound(name.to_string()))?;
    let owner = u64::from_be_bytes(owner_raw.try_into().unwrap_or_default());
    if owner != client.to_u64() {
        return Err(PalaemonError::NotAuthorized(format!(
            "client key does not own policy '{name}'"
        )));
    }
    Ok(())
}

fn load_policy(view: &DbView, name: &str) -> Result<Policy> {
    let raw = view
        .get(format!("policy/{name}").as_bytes())
        .ok_or_else(|| PalaemonError::PolicyNotFound(name.to_string()))?;
    Policy::decode(raw)
}

/// The set of MRENCLAVEs a service accepts: its own list plus the exported
/// combos of imported image policies (intersection with the app's
/// restriction happens in [`crate::update::allowed_combos`]).
fn effective_mrenclaves(view: &DbView, service: &ServiceSpec) -> Result<Vec<Digest>> {
    let mut mres = service.mrenclaves.clone();
    for image_policy_name in &service.import_combos {
        let image_policy = load_policy(view, image_policy_name)?;
        for combo in &image_policy.exported_combos {
            if !mres.contains(&combo.mrenclave) {
                mres.push(combo.mrenclave);
            }
        }
    }
    Ok(mres)
}

fn tag_record(view: &DbView, policy: &str, volume: &str) -> Option<TagRecord> {
    let raw = view.get(format!("tag/{policy}/{volume}").as_bytes())?;
    if raw.len() != 33 {
        return None;
    }
    let mut arr = [0u8; 32];
    arr.copy_from_slice(&raw[..32]);
    Some(TagRecord {
        tag: Digest::from_bytes(arr),
        event: event_from_code(raw[32])?,
    })
}

/// Replaces `{{secret}}` references inside a string value.
fn substitute(value: &str, secrets: &SecretMap) -> String {
    let (out, _) = shielded_fs::inject::inject_secrets(value.as_bytes(), secrets);
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Stakeholder;
    use crate::policy::Policy;
    use palaemon_crypto::aead::AeadKey as Key;
    use palaemon_db::Db;
    use shielded_fs::store::{BufferedStore, MemStore};
    use tee_sim::platform::{Microcode, Platform};
    use tee_sim::quote::{create_report, quote_report};

    fn new_tms() -> Palaemon {
        let db =
            Db::create(Box::new(MemStore::new()), Key::from_bytes([1; 32])).expect("create db");
        Palaemon::new(
            db,
            SigningKey::from_seed(b"tms"),
            Digest::from_bytes([0xAA; 32]),
            7,
        )
    }

    fn client() -> (SigningKey, VerifyingKey) {
        let sk = SigningKey::from_seed(b"client");
        let vk = sk.verifying_key();
        (sk, vk)
    }

    fn simple_policy(name: &str, mre: Digest) -> Policy {
        Policy::parse(&format!(
            r#"
name: {name}
services:
  - name: app
    command: app --token {{{{token}}}}
    mrenclaves: ["{}"]
    volumes: ["data"]
    env:
      API_TOKEN: "{{{{token}}}}"
secrets:
  - name: token
    kind: ascii
    length: 16
volumes:
  - name: data
"#,
            mre.to_hex()
        ))
        .unwrap()
    }

    fn quote_for(platform: &Platform, mre: Digest, binding: [u8; 64]) -> Quote {
        let report = create_report(platform, mre, binding);
        quote_report(platform, &report).unwrap()
    }

    fn setup() -> (Palaemon, Platform, VerifyingKey, Digest) {
        let tms = new_tms();
        let platform = Platform::new("plat-1", Microcode::PostForeshadow);
        tms.register_platform(platform.id(), platform.qe_verifying_key());
        let (_, owner) = client();
        let mre = Digest::from_bytes([0x22; 32]);
        tms.create_policy(&owner, simple_policy("p1", mre), None, &[])
            .unwrap();
        (tms, platform, owner, mre)
    }

    #[test]
    fn create_and_attest_delivers_config() {
        let (tms, platform, _, mre) = setup();
        let binding = [9u8; 64];
        let quote = quote_for(&platform, mre, binding);
        let config = tms.attest_service(&quote, &binding, "p1", "app").unwrap();
        let token = config.secrets.get("token").unwrap();
        assert_eq!(token.len(), 16);
        // Secret substituted into args and env.
        let token_str = String::from_utf8(token.clone()).unwrap();
        assert_eq!(
            config.args,
            vec!["app".to_string(), "--token".into(), token_str.clone()]
        );
        assert_eq!(config.env.get("API_TOKEN").unwrap(), &token_str);
        // Volume key granted, no expected tag yet.
        assert_eq!(config.volumes.len(), 1);
        assert!(config.volumes[0].expected_tag.is_none());
    }

    #[test]
    fn duplicate_policy_name_rejected() {
        let (tms, _, owner, mre) = setup();
        let err = tms
            .create_policy(&owner, simple_policy("p1", mre), None, &[])
            .unwrap_err();
        assert!(matches!(err, PalaemonError::PolicyExists(_)));
    }

    #[test]
    fn wrong_mre_rejected() {
        let (tms, platform, _, _) = setup();
        let binding = [9u8; 64];
        let quote = quote_for(&platform, Digest::from_bytes([0x33; 32]), binding);
        let err = tms
            .attest_service(&quote, &binding, "p1", "app")
            .unwrap_err();
        assert!(matches!(err, PalaemonError::AttestationFailed(_)));
    }

    #[test]
    fn unknown_platform_rejected() {
        let (tms, _, _, mre) = setup();
        let rogue = Platform::new("rogue", Microcode::PostForeshadow);
        let binding = [9u8; 64];
        let quote = quote_for(&rogue, mre, binding);
        assert!(tms.attest_service(&quote, &binding, "p1", "app").is_err());
    }

    #[test]
    fn tls_binding_mismatch_rejected() {
        let (tms, platform, _, mre) = setup();
        let quote = quote_for(&platform, mre, [1u8; 64]);
        let err = tms
            .attest_service(&quote, &[2u8; 64], "p1", "app")
            .unwrap_err();
        assert!(err.to_string().contains("TLS"));
    }

    #[test]
    fn platform_restriction_enforced() {
        let tms = new_tms();
        let allowed = Platform::new("allowed-host", Microcode::PostForeshadow);
        let other = Platform::new("other-host", Microcode::PostForeshadow);
        tms.register_platform(allowed.id(), allowed.qe_verifying_key());
        tms.register_platform(other.id(), other.qe_verifying_key());
        let (_, owner) = client();
        let mre = Digest::from_bytes([0x44; 32]);
        let policy = Policy::parse(&format!(
            r#"
name: pinned
services:
  - name: app
    mrenclaves: ["{}"]
    platforms: ["allowed-host"]
"#,
            mre.to_hex()
        ))
        .unwrap();
        tms.create_policy(&owner, policy, None, &[]).unwrap();
        let binding = [0u8; 64];
        let ok = quote_for(&allowed, mre, binding);
        assert!(tms.attest_service(&ok, &binding, "pinned", "app").is_ok());
        let bad = quote_for(&other, mre, binding);
        assert!(tms.attest_service(&bad, &binding, "pinned", "app").is_err());
    }

    #[test]
    fn tag_push_and_read() {
        let (tms, platform, _, mre) = setup();
        let binding = [9u8; 64];
        let quote = quote_for(&platform, mre, binding);
        let config = tms.attest_service(&quote, &binding, "p1", "app").unwrap();
        let tag = Digest::from_bytes([0x77; 32]);
        tms.push_tag(config.session, "data", tag, TagEvent::Sync)
            .unwrap();
        let rec = tms.read_tag(config.session, "data").unwrap().unwrap();
        assert_eq!(rec.tag, tag);
        assert_eq!(rec.event, TagEvent::Sync);
        // Next attestation sees the expected tag.
        let quote2 = quote_for(&platform, mre, binding);
        let config2 = tms.attest_service(&quote2, &binding, "p1", "app").unwrap();
        assert_eq!(config2.volumes[0].expected_tag, Some(tag));
    }

    #[test]
    fn tag_push_requires_granted_volume() {
        let (tms, platform, _, mre) = setup();
        let binding = [9u8; 64];
        let quote = quote_for(&platform, mre, binding);
        let config = tms.attest_service(&quote, &binding, "p1", "app").unwrap();
        let err = tms
            .push_tag(config.session, "other-volume", Digest::ZERO, TagEvent::Sync)
            .unwrap_err();
        assert_eq!(err, PalaemonError::NoSuchSession);
    }

    #[test]
    fn unknown_session_rejected() {
        let tms = new_tms();
        assert_eq!(
            tms.push_tag(SessionId(99), "v", Digest::ZERO, TagEvent::Sync)
                .unwrap_err(),
            PalaemonError::NoSuchSession
        );
    }

    #[test]
    fn strict_mode_blocks_unclean_restart() {
        let tms = new_tms();
        let platform = Platform::new("plat-1", Microcode::PostForeshadow);
        tms.register_platform(platform.id(), platform.qe_verifying_key());
        let (_, owner) = client();
        let mre = Digest::from_bytes([0x55; 32]);
        let policy = Policy::parse(&format!(
            r#"
name: strictp
strict: true
services:
  - name: app
    mrenclaves: ["{}"]
    volumes: ["state"]
volumes:
  - name: state
"#,
            mre.to_hex()
        ))
        .unwrap();
        tms.create_policy(&owner, policy, None, &[]).unwrap();
        let binding = [0u8; 64];
        let quote = quote_for(&platform, mre, binding);
        let config = tms
            .attest_service(&quote, &binding, "strictp", "app")
            .unwrap();
        // App makes progress but crashes: last push is Sync, not Exit.
        tms.push_tag(
            config.session,
            "state",
            Digest::from_bytes([1; 32]),
            TagEvent::Sync,
        )
        .unwrap();
        let quote2 = quote_for(&platform, mre, binding);
        let err = tms
            .attest_service(&quote2, &binding, "strictp", "app")
            .unwrap_err();
        assert!(matches!(err, PalaemonError::StrictModeViolation(_)));
        // Clean exit unblocks.
        tms.push_tag(
            config.session,
            "state",
            Digest::from_bytes([2; 32]),
            TagEvent::Exit,
        )
        .unwrap();
        let quote3 = quote_for(&platform, mre, binding);
        assert!(tms
            .attest_service(&quote3, &binding, "strictp", "app")
            .is_ok());
        // Admin reset also unblocks after a crash.
        tms.push_tag(
            config.session,
            "state",
            Digest::from_bytes([3; 32]),
            TagEvent::Sync,
        )
        .unwrap();
        let quote4 = quote_for(&platform, mre, binding);
        assert!(tms
            .attest_service(&quote4, &binding, "strictp", "app")
            .is_err());
        tms.reset_tag("strictp", "state").unwrap();
        let quote5 = quote_for(&platform, mre, binding);
        assert!(tms
            .attest_service(&quote5, &binding, "strictp", "app")
            .is_ok());
    }

    #[test]
    fn board_policy_requires_approval() {
        let tms = new_tms();
        let (_, owner) = client();
        let alice = Stakeholder::from_seed("alice", b"a");
        let bob = Stakeholder::from_seed("bob", b"b");
        let mre = Digest::from_bytes([0x66; 32]);
        let text = format!(
            r#"
name: boardp
services:
  - name: app
    mrenclaves: ["{}"]
board:
  threshold: 2
  members:
    - id: alice
      key: {}
    - id: bob
      key: {}
"#,
            mre.to_hex(),
            alice.verifying_key().to_u64(),
            bob.verifying_key().to_u64()
        );
        let policy = Policy::parse(&text).unwrap();

        // No approval: rejected.
        assert!(tms
            .create_policy(&owner, policy.clone(), None, &[])
            .is_err());

        // With quorum: accepted.
        let req = tms.begin_approval("boardp", PolicyAction::Create, policy.digest());
        let votes = vec![alice.vote(&req, true), bob.vote(&req, true)];
        tms.create_policy(&owner, policy.clone(), Some(&req), &votes)
            .unwrap();
        assert_eq!(tms.policy_count(), 1);

        // Update with only one vote: rejected.
        let mut updated = policy.clone();
        updated.strict = true;
        let req = tms.begin_approval("boardp", PolicyAction::Update, updated.digest());
        let votes = vec![alice.vote(&req, true)];
        assert!(tms
            .update_policy(&owner, updated.clone(), Some(&req), &votes)
            .is_err());

        // Update with quorum: accepted.
        let req = tms.begin_approval("boardp", PolicyAction::Update, updated.digest());
        let votes = vec![alice.vote(&req, true), bob.vote(&req, true)];
        tms.update_policy(&owner, updated, Some(&req), &votes)
            .unwrap();
    }

    #[test]
    fn nonce_cannot_be_reused() {
        let tms = new_tms();
        let (_, owner) = client();
        let alice = Stakeholder::from_seed("alice", b"a");
        let mre = Digest::from_bytes([0x66; 32]);
        let text = format!(
            r#"
name: nonce_p
services:
  - name: app
    mrenclaves: ["{}"]
board:
  threshold: 1
  members:
    - id: alice
      key: {}
"#,
            mre.to_hex(),
            alice.verifying_key().to_u64()
        );
        let policy = Policy::parse(&text).unwrap();
        let req = tms.begin_approval("nonce_p", PolicyAction::Create, policy.digest());
        let votes = vec![alice.vote(&req, true)];
        tms.create_policy(&owner, policy.clone(), Some(&req), &votes)
            .unwrap();
        // Delete and try to recreate with the same (consumed) approval.
        let req_del = tms.begin_approval("nonce_p", PolicyAction::Delete, Digest::ZERO);
        let del_votes = vec![alice.vote(&req_del, true)];
        tms.delete_policy("nonce_p", &owner, Some(&req_del), &del_votes)
            .unwrap();
        let err = tms
            .create_policy(&owner, policy, Some(&req), &votes)
            .unwrap_err();
        assert!(err.to_string().contains("nonce"));
    }

    #[test]
    fn owner_key_enforced() {
        let (tms, _, _, mre) = setup();
        let stranger = SigningKey::from_seed(b"stranger").verifying_key();
        assert!(matches!(
            tms.read_policy("p1", &stranger, None, &[]),
            Err(PalaemonError::NotAuthorized(_))
        ));
        let _ = mre;
    }

    #[test]
    fn secret_export_between_policies() {
        let tms = new_tms();
        let platform = Platform::new("plat-1", Microcode::PostForeshadow);
        tms.register_platform(platform.id(), platform.qe_verifying_key());
        let (_, owner) = client();
        let mre_a = Digest::from_bytes([0x10; 32]);
        let mre_b = Digest::from_bytes([0x20; 32]);
        // Policy A exports a secret to policy B.
        let a = Policy::parse(&format!(
            r#"
name: producer
services:
  - name: app
    mrenclaves: ["{}"]
secrets:
  - name: shared_key
    kind: binary
    length: 32
    export: consumer
"#,
            mre_a.to_hex()
        ))
        .unwrap();
        let b = Policy::parse(&format!(
            r#"
name: consumer
services:
  - name: app
    mrenclaves: ["{}"]
"#,
            mre_b.to_hex()
        ))
        .unwrap();
        tms.create_policy(&owner, a, None, &[]).unwrap();
        tms.create_policy(&owner, b, None, &[]).unwrap();
        let binding = [0u8; 64];
        let quote = quote_for(&platform, mre_b, binding);
        let config = tms
            .attest_service(&quote, &binding, "consumer", "app")
            .unwrap();
        assert_eq!(config.secrets.get("shared_key").unwrap().len(), 32);
    }

    #[test]
    fn delete_policy_removes_material() {
        let (tms, _, owner, _) = setup();
        tms.delete_policy("p1", &owner, None, &[]).unwrap();
        assert_eq!(tms.policy_count(), 0);
        assert!(matches!(
            tms.read_policy("p1", &owner, None, &[]),
            Err(PalaemonError::PolicyNotFound(_))
        ));
    }

    #[test]
    fn imported_combo_mre_accepted() {
        let tms = new_tms();
        let platform = Platform::new("plat-1", Microcode::PostForeshadow);
        tms.register_platform(platform.id(), platform.qe_verifying_key());
        let (_, owner) = client();
        let python_mre = Digest::from_bytes([0x99; 32]);
        let image_policy = Policy::parse(&format!(
            r#"
name: python_image_policy
exports:
  combos:
    - mrenclave: "{}"
      tag: "{}"
"#,
            python_mre.to_hex(),
            Digest::from_bytes([0x01; 32]).to_hex()
        ))
        .unwrap();
        let app_policy = Policy::parse(
            r#"
name: app_policy
services:
  - name: app
    import_combos: ["python_image_policy"]
"#,
        )
        .unwrap();
        tms.create_policy(&owner, image_policy, None, &[]).unwrap();
        tms.create_policy(&owner, app_policy, None, &[]).unwrap();
        let binding = [0u8; 64];
        let quote = quote_for(&platform, python_mre, binding);
        assert!(tms
            .attest_service(&quote, &binding, "app_policy", "app")
            .is_ok());
    }

    #[test]
    fn policy_records_migrate_between_engines() {
        // The shard-migration plumbing: export from one engine, import
        // into another, purge the source — the moved policy attests on the
        // target with its secrets and expected tags intact.
        let source = new_tms();
        let target = new_tms();
        let platform = Platform::new("mig-plat", Microcode::PostForeshadow);
        source.register_platform(platform.id(), platform.qe_verifying_key());
        target.register_platform(platform.id(), platform.qe_verifying_key());
        let (_, owner) = client();
        let mre = Digest::from_bytes([0x71; 32]);
        source
            .create_policy(&owner, simple_policy("mig", mre), None, &[])
            .unwrap();
        // A sibling whose name shares the prefix must be unaffected.
        source
            .create_policy(&owner, simple_policy("mig2", mre), None, &[])
            .unwrap();
        let binding = [0u8; 64];
        let config = source
            .attest_service(&quote_for(&platform, mre, binding), &binding, "mig", "app")
            .unwrap();
        let expected_secret = config.secrets.get("token").unwrap().clone();
        source
            .push_tag(
                config.session,
                "data",
                Digest::from_bytes([0x0A; 32]),
                TagEvent::Sync,
            )
            .unwrap();
        assert_eq!(source.sessions_for_policy("mig"), vec![config.session]);

        let records = source.export_policy_records("mig");
        target.stage_policy_records("mig", &records).wait().unwrap();
        source.purge_policy_records("mig").unwrap();

        assert_eq!(source.policy_names(), vec!["mig2".to_string()]);
        assert!(target.policy_names().contains(&"mig".to_string()));
        // The sibling's material survived the purge of "mig".
        assert!(source
            .attest_service(&quote_for(&platform, mre, binding), &binding, "mig2", "app")
            .is_ok());
        // The migrated policy serves identically on the target: same
        // secret material, and the expected tag followed it.
        let migrated = target
            .attest_service(&quote_for(&platform, mre, binding), &binding, "mig", "app")
            .unwrap();
        assert_eq!(migrated.secrets.get("token").unwrap(), &expected_secret);
        assert_eq!(
            migrated.volumes[0].expected_tag,
            Some(Digest::from_bytes([0x0A; 32]))
        );
        // Exporting a missing policy is empty, not an error.
        assert!(source.export_policy_records("mig").is_empty());
    }

    #[test]
    fn session_lifecycle() {
        let (tms, platform, _, mre) = setup();
        let binding = [9u8; 64];
        let quote = quote_for(&platform, mre, binding);
        let config = tms.attest_service(&quote, &binding, "p1", "app").unwrap();
        assert_eq!(tms.session_count(), 1);
        tms.close_session(config.session);
        assert_eq!(tms.session_count(), 0);
        assert!(tms.read_tag(config.session, "data").is_err());
    }

    #[test]
    fn policy_delta_roundtrips_and_rejects_tampering() {
        let (primary, platform, _, mre) = setup();
        let binding = [3u8; 64];
        let quote = quote_for(&platform, mre, binding);
        let config = primary
            .attest_service(&quote, &binding, "p1", "app")
            .unwrap();
        primary
            .push_tag(
                config.session,
                "data",
                Digest::from_bytes([0x5A; 32]),
                TagEvent::Sync,
            )
            .unwrap();

        // Forward the delta to a follower: the follower serves the policy
        // identically (secret material and expected tag included).
        let follower = new_tms();
        follower.register_platform(platform.id(), platform.qe_verifying_key());
        let delta = primary.export_policy_snapshot("p1", 7);
        assert!(!delta.is_incremental());
        assert_eq!(
            delta.digest,
            PolicyDelta::digest_of("p1", 7, 0, &delta.payload)
        );
        follower.apply_policy_delta(&delta).unwrap();
        assert_eq!(follower.policy_cursor("p1"), Some(7));
        let mirrored = follower
            .attest_service(&quote_for(&platform, mre, binding), &binding, "p1", "app")
            .unwrap();
        assert_eq!(
            mirrored.volumes[0].expected_tag,
            Some(Digest::from_bytes([0x5A; 32]))
        );
        assert_eq!(mirrored.secrets.get("token"), config.secrets.get("token"));

        // A corrupted delta is rejected before any record lands.
        let mut evil = primary.export_policy_snapshot("p1", 8);
        let DeltaPayload::Snapshot { records } = &mut evil.payload else {
            panic!("snapshot expected");
        };
        let mut tampered = records[0].1.to_vec();
        tampered.push(0xFF);
        records[0].1 = tampered.into();
        assert!(matches!(
            follower.apply_policy_delta(&evil),
            Err(PalaemonError::Db(_))
        ));
        assert_eq!(follower.policy_count(), 1, "rejected delta must not purge");
        // So is one whose chain tokens were tampered with.
        let mut shifted = primary.export_policy_snapshot("p1", 9);
        shifted.token = 99;
        assert!(matches!(
            follower.apply_policy_delta(&shifted),
            Err(PalaemonError::Db(_))
        ));

        // An empty delta (deleted policy) purges on apply.
        let (_, owner) = client();
        primary.delete_policy("p1", &owner, None, &[]).unwrap();
        let tombstone = primary.export_policy_snapshot("p1", 10);
        assert!(matches!(
            &tombstone.payload,
            DeltaPayload::Snapshot { records } if records.is_empty()
        ));
        follower.apply_policy_delta(&tombstone).unwrap();
        assert_eq!(follower.policy_count(), 0);
    }

    #[test]
    fn incremental_deltas_chain_and_reject_gaps_and_replays() {
        let (primary, platform, _, mre) = setup();
        primary.enable_change_capture();
        let follower = new_tms();
        follower.register_platform(platform.id(), platform.qe_verifying_key());

        // "p1" was created before capture was on: seed the follower with a
        // snapshot (token 1), like a fresh replica's warm copy.
        follower
            .apply_policy_delta(&primary.export_policy_snapshot("p1", 1))
            .unwrap();

        // A tag push captures exactly one record — the tag row.
        let binding = [6u8; 64];
        let config = primary
            .attest_service(&quote_for(&platform, mre, binding), &binding, "p1", "app")
            .unwrap();
        primary
            .push_tag(
                config.session,
                "data",
                Digest::from_bytes([0x11; 32]),
                TagEvent::Sync,
            )
            .unwrap();
        let changes = primary.take_policy_changes("p1").expect("captured");
        assert_eq!(changes.len(), 1, "a tag push changes exactly the tag row");
        assert!(primary.take_policy_changes("p1").is_none(), "drained");
        let d2 = PolicyDelta::incremental("p1", changes, 2, 1);
        assert!(d2.is_incremental());
        assert!(d2.wire_size() < primary.export_policy_snapshot("p1", 2).wire_size());
        follower.apply_policy_delta(&d2).unwrap();
        assert_eq!(follower.policy_cursor("p1"), Some(2));
        assert_eq!(
            follower.export_policy_records("p1"),
            primary.export_policy_records("p1"),
            "incremental apply must converge to the primary's records"
        );

        // Replaying the same delta is out of sequence (cursor moved on).
        assert!(matches!(
            follower.apply_policy_delta(&d2),
            Err(PalaemonError::DeltaOutOfSequence {
                expected: 2,
                got: 1,
                ..
            })
        ));

        // A gap (delta 4 chaining from 3, which the follower never saw) is
        // rejected and leaves the records untouched...
        primary
            .push_tag(
                config.session,
                "data",
                Digest::from_bytes([0x22; 32]),
                TagEvent::Sync,
            )
            .unwrap();
        let lost = primary.take_policy_changes("p1").unwrap(); // never forwarded
        let stale = primary.export_policy_snapshot("p1", 3); // arrives late, below
        primary
            .push_tag(
                config.session,
                "data",
                Digest::from_bytes([0x33; 32]),
                TagEvent::Exit,
            )
            .unwrap();
        let after_gap =
            PolicyDelta::incremental("p1", primary.take_policy_changes("p1").unwrap(), 4, 3);
        let before = follower.export_policy_records("p1");
        assert!(matches!(
            follower.apply_policy_delta(&after_gap),
            Err(PalaemonError::DeltaOutOfSequence {
                expected: 2,
                got: 3,
                ..
            })
        ));
        assert_eq!(follower.export_policy_records("p1"), before);
        drop(lost);
        // ...until a snapshot resync re-bases the chain.
        follower
            .apply_policy_delta(&primary.export_policy_snapshot("p1", 4))
            .unwrap();
        assert_eq!(follower.policy_cursor("p1"), Some(4));
        assert_eq!(
            follower.export_policy_records("p1"),
            primary.export_policy_records("p1")
        );
        // Snapshots re-base *forward* only: a stale (older-token) snapshot
        // — a resync delivered late, behind its successor — must never
        // purge newer records or move the cursor back.
        let before = follower.export_policy_records("p1");
        assert!(matches!(
            follower.apply_policy_delta(&stale),
            Err(PalaemonError::DeltaOutOfSequence {
                expected: 4,
                got: 3,
                ..
            })
        ));
        assert_eq!(follower.policy_cursor("p1"), Some(4));
        assert_eq!(follower.export_policy_records("p1"), before);

        // A delete travels as tombstones and applies in place.
        let (_, owner) = client();
        primary.delete_policy("p1", &owner, None, &[]).unwrap();
        let del = primary.take_policy_changes("p1").unwrap();
        follower
            .apply_policy_delta(&PolicyDelta::incremental("p1", del, 5, 4))
            .unwrap();
        assert_eq!(follower.policy_count(), 0);

        // Purging resets the chain: cursors and pending changes are void.
        assert_eq!(follower.policy_cursor("p1"), Some(5));
        follower.purge_policy_records("p1").unwrap();
        assert_eq!(follower.policy_cursor("p1"), None);
    }

    #[test]
    fn clearing_a_policy_cursor_lifts_the_chain_veto() {
        let (primary, ..) = setup();
        let follower = new_tms();
        follower
            .apply_policy_delta(&primary.export_policy_snapshot("p1", 9))
            .unwrap();
        // An older snapshot is vetoed by the cursor...
        assert!(matches!(
            follower.apply_policy_delta(&primary.export_policy_snapshot("p1", 3)),
            Err(PalaemonError::DeltaOutOfSequence { .. })
        ));
        // ...until a re-base forgets that policy's chain position.
        follower.clear_policy_cursor("p1");
        follower
            .apply_policy_delta(&primary.export_policy_snapshot("p1", 3))
            .unwrap();
        assert_eq!(follower.policy_cursor("p1"), Some(3));
    }

    #[test]
    fn replication_snapshot_is_one_consistent_cut() {
        let (tms, platform, owner, mre) = setup();
        tms.create_policy(&owner, simple_policy("p2", mre), None, &[])
            .unwrap();
        let binding = [8u8; 64];
        let config = tms
            .attest_service(&quote_for(&platform, mre, binding), &binding, "p1", "app")
            .unwrap();
        let req = tms.begin_approval("p1", PolicyAction::Update, Digest::ZERO);
        let snap = tms.replication_snapshot();
        let held = |name: &str| tms.export_policy_records(name);
        let at_cut = [held("p1"), held("p2")];
        // Mutations after the cut are invisible to it.
        tms.create_policy(&owner, simple_policy("p3", mre), None, &[])
            .unwrap();
        tms.purge_policy_records("p2").unwrap();
        assert_eq!(snap.policy_names(), vec!["p1", "p2"]);
        assert_eq!([snap.records("p1"), snap.records("p2")], at_cut);
        assert!(snap.records("p3").is_empty() && !held("p3").is_empty());
        assert_eq!(snap.sessions.len(), 1);
        assert_eq!(snap.sessions[0].session, config.session);
        assert_eq!(snap.sessions[0].policy, "p1");
        assert_eq!(snap.approvals.len(), 1);
        assert_eq!(snap.approvals[0].nonce, req.nonce);
        assert_eq!(snap.approvals[0].policy_name, "p1");
    }

    #[test]
    fn session_mirroring_preserves_ids_and_allocator() {
        let (primary, platform, _, mre) = setup();
        let binding = [4u8; 64];
        let config = primary
            .attest_service(&quote_for(&platform, mre, binding), &binding, "p1", "app")
            .unwrap();
        assert_eq!(
            primary.policy_of_session(config.session).as_deref(),
            Some("p1")
        );
        assert_eq!(primary.policy_of_session(SessionId(999)), None);

        let record = primary.export_session(config.session).unwrap();
        assert_eq!(record.policy, "p1");
        assert_eq!(record.service, "app");
        assert_eq!(primary.export_sessions(), vec![record.clone()]);

        // The follower installs the session under the *same* id and can
        // serve its tag traffic after a failover.
        let follower = new_tms();
        follower.register_platform(platform.id(), platform.qe_verifying_key());
        follower
            .apply_policy_delta(&primary.export_policy_snapshot("p1", 1))
            .unwrap();
        follower.import_session(&record);
        follower
            .push_tag(
                config.session,
                "data",
                Digest::from_bytes([0x77; 32]),
                TagEvent::Sync,
            )
            .unwrap();
        // The promoted follower's allocator stays ahead of mirrored ids.
        let fresh = follower
            .attest_service(&quote_for(&platform, mre, binding), &binding, "p1", "app")
            .unwrap();
        assert!(fresh.session > config.session, "mirrored id was re-issued");
    }

    #[test]
    fn session_id_ranges_partition_the_space() {
        let (tms, platform, _, mre) = setup();
        tms.set_session_id_range(2, 64);
        let binding = [5u8; 64];
        let attest = || {
            tms.attest_service(&quote_for(&platform, mre, binding), &binding, "p1", "app")
                .unwrap()
                .session
        };
        assert_eq!(attest(), SessionId(2));
        assert_eq!(attest(), SessionId(66));
        let record = |id: u64| SessionRecord {
            session: SessionId(id),
            policy: "p1".into(),
            service: "app".into(),
            volumes: vec!["data".into()],
        };
        // A peer-class id (domain 4) mirrors in without touching our
        // allocator...
        tms.import_session(&record(3 + 64 * 50));
        assert_eq!(attest(), SessionId(130));
        // ...while an own-class id jumps the slot counter past it.
        tms.import_session(&record(2 + 64 * 9));
        assert_eq!(attest(), SessionId(2 + 64 * 10));
    }

    #[test]
    fn same_named_secret_exports_do_not_collide() {
        // Regression: the export-secret key used to omit the producer
        // segment, so two producers exporting a same-named secret to one
        // consumer clobbered each other.
        let tms = new_tms();
        let platform = Platform::new("plat-1", Microcode::PostForeshadow);
        tms.register_platform(platform.id(), platform.qe_verifying_key());
        let (_, owner) = client();
        let mre = Digest::from_bytes([0x30; 32]);
        for producer in ["prod-a", "prod-b"] {
            let p = Policy::parse(&format!(
                r#"
name: {producer}
services:
  - name: app
    mrenclaves: ["{}"]
secrets:
  - name: shared_key
    kind: binary
    length: 32
    export: consumer
"#,
                mre.to_hex()
            ))
            .unwrap();
            tms.create_policy(&owner, p, None, &[]).unwrap();
        }
        let consumer = Policy::parse(&format!(
            r#"
name: consumer
services:
  - name: app
    mrenclaves: ["{}"]
"#,
            mre.to_hex()
        ))
        .unwrap();
        tms.create_policy(&owner, consumer, None, &[]).unwrap();

        // Both producers' rows coexist under the consumer's prefix.
        let from_a = tms.export_records_for("consumer", "prod-a");
        let from_b = tms.export_records_for("consumer", "prod-b");
        assert_eq!(from_a.len(), 1);
        assert_eq!(from_b.len(), 1);
        assert_ne!(from_a[0].1, from_b[0].1, "producers generated one value");

        // Delivery is deterministic: first producer in key order wins.
        let binding = [0u8; 64];
        let config = tms
            .attest_service(
                &quote_for(&platform, mre, binding),
                &binding,
                "consumer",
                "app",
            )
            .unwrap();
        assert_eq!(
            config.secrets.get("shared_key").unwrap().as_slice(),
            from_a[0].1.as_ref()
        );

        // Deleting one producer leaves the other's export intact.
        tms.delete_policy("prod-a", &owner, None, &[]).unwrap();
        assert!(tms.export_records_for("consumer", "prod-a").is_empty());
        let config = tms
            .attest_service(
                &quote_for(&platform, mre, binding),
                &binding,
                "consumer",
                "app",
            )
            .unwrap();
        assert_eq!(
            config.secrets.get("shared_key").unwrap().as_slice(),
            from_b[0].1.as_ref()
        );
        tms.delete_policy("prod-b", &owner, None, &[]).unwrap();
        let config = tms
            .attest_service(
                &quote_for(&platform, mre, binding),
                &binding,
                "consumer",
                "app",
            )
            .unwrap();
        assert!(!config.secrets.contains_key("shared_key"));
    }

    #[test]
    fn update_reconciles_export_rows() {
        let tms = new_tms();
        let (_, owner) = client();
        let mre = Digest::from_bytes([0x31; 32]);
        let spec = |secret_target: &str, vol_target: &str| {
            Policy::parse(&format!(
                r#"
name: producer
services:
  - name: app
    mrenclaves: ["{}"]
secrets:
  - name: api_key
    kind: binary
    length: 32
    export: {secret_target}
volumes:
  - name: shared
    export: {vol_target}
"#,
                mre.to_hex()
            ))
            .unwrap()
        };
        tms.create_policy(&owner, spec("t1", "t1"), None, &[])
            .unwrap();
        let before = tms.export_records_for("t1", "producer");
        assert_eq!(before.len(), 2);

        // Re-targeting moves the rows without rotating the material.
        tms.update_policy(&owner, spec("t2", "t2"), None, &[])
            .unwrap();
        assert!(tms.export_records_for("t1", "producer").is_empty());
        let after = tms.export_records_for("t2", "producer");
        let values = |recs: &PolicyRecords| recs.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>();
        assert_eq!(values(&after), values(&before), "material was rotated");

        // Dropping the declarations entirely purges the rows.
        let bare = Policy::parse(&format!(
            r#"
name: producer
services:
  - name: app
    mrenclaves: ["{}"]
volumes:
  - name: shared
"#,
            mre.to_hex()
        ))
        .unwrap();
        tms.update_policy(&owner, bare, None, &[]).unwrap();
        assert!(tms.export_records_for("t2", "producer").is_empty());
        assert_eq!(tms.export_targets("producer"), Vec::<String>::new());
    }

    #[test]
    fn forwarded_export_records_ride_the_targets_chain() {
        let tms = new_tms();
        tms.enable_change_capture();
        let (_, owner) = client();
        let mre = Digest::from_bytes([0x32; 32]);
        tms.create_policy(&owner, simple_policy("cons", mre), None, &[])
            .unwrap();
        tms.take_policy_changes("cons");
        let puts: PolicyRecords = vec![(
            Bytes::from(b"export-secret/cons/far-prod/api".to_vec()),
            Bytes::from(b"v1".to_vec()),
        )];
        tms.apply_export_records("cons", &puts, &[]).unwrap();
        let changes = tms
            .take_policy_changes("cons")
            .expect("forwarded rows captured under the consumer");
        assert_eq!(changes.len(), 1);
        // An empty batch is a no-op: no spurious delta.
        tms.apply_export_records("cons", &Vec::new(), &[]).unwrap();
        assert!(tms.take_policy_changes("cons").is_none());
        // Tombstones drop the row again.
        tms.apply_export_records(
            "cons",
            &Vec::new(),
            &[Bytes::from(b"export-secret/cons/far-prod/api".to_vec())],
        )
        .unwrap();
        assert!(tms.export_records_for("cons", "far-prod").is_empty());
    }

    #[test]
    fn approval_rounds_mirror_between_engines() {
        let tms = new_tms();
        let (_, owner) = client();
        let alice = Stakeholder::from_seed("alice", b"a");
        let mre = Digest::from_bytes([0x67; 32]);
        let policy = Policy::parse(&format!(
            r#"
name: mirror_p
services:
  - name: app
    mrenclaves: ["{}"]
board:
  threshold: 1
  members:
    - id: alice
      key: {}
"#,
            mre.to_hex(),
            alice.verifying_key().to_u64()
        ))
        .unwrap();
        let req = tms.begin_approval("mirror_p", PolicyAction::Create, policy.digest());
        tms.create_policy(
            &owner,
            policy.clone(),
            Some(&req),
            &[alice.vote(&req, true)],
        )
        .unwrap();
        assert!(tms.export_approval(req.nonce).is_none(), "consumed");

        // An open round mirrors onto a follower and completes there.
        let mut updated = policy.clone();
        updated.strict = true;
        let req = tms.begin_approval("mirror_p", PolicyAction::Update, updated.digest());
        let record = tms.export_approval(req.nonce).unwrap();
        assert_eq!(record.policy_name, "mirror_p");
        assert_eq!(tms.export_approvals(), vec![record.clone()]);

        let follower = new_tms();
        follower
            .apply_policy_delta(&tms.export_policy_snapshot("mirror_p", 1))
            .unwrap();
        follower.import_approval(&record);
        follower
            .update_policy(&owner, updated, Some(&req), &[alice.vote(&req, true)])
            .unwrap();

        // The promoted follower never re-issues a mirrored nonce...
        let fresh = follower.begin_approval("mirror_p", PolicyAction::Read, Digest::ZERO);
        assert!(fresh.nonce > req.nonce, "mirrored nonce was re-issued");
        // ...and a discarded round's nonce is unusable.
        follower.discard_approval(fresh.nonce);
        assert!(follower.export_approval(fresh.nonce).is_none());
        let err = follower
            .read_policy(
                "mirror_p",
                &owner,
                Some(&fresh),
                &[alice.vote(&fresh, true)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("nonce"));
    }

    /// A follower engine on a write-back device, with the disk a power cut
    /// leaves behind: `disk` only ever holds what a `sync` flushed, so
    /// [`crash_image`] of it is the follower's state after a crash *now*.
    fn follower_on_device() -> (Palaemon, BufferedStore<MemStore>, MemStore) {
        let disk = MemStore::new();
        let device = BufferedStore::new(disk.clone());
        let db = Db::create(Box::new(device.clone()), Key::from_bytes([1; 32])).expect("create db");
        let follower = Palaemon::new(db, SigningKey::from_seed(b"follower"), Digest::ZERO, 8);
        (follower, device, disk)
    }

    fn crash_image(disk: &MemStore) -> Db {
        Db::open(Box::new(disk.clone()), Key::from_bytes([1; 32])).expect("crash image reopens")
    }

    /// The snapshot arm is one commit: whichever device operation of a
    /// resync the follower dies at, it reopens with the policy's old or new
    /// record set — never with the purged-but-not-yet-imported nothing.
    #[test]
    fn snapshot_resync_is_crash_atomic_at_every_device_op() {
        let (primary, platform, _, mre) = setup();
        let old = primary.export_policy_snapshot("p1", 1);
        let binding = [4u8; 64];
        let config = primary
            .attest_service(&quote_for(&platform, mre, binding), &binding, "p1", "app")
            .unwrap();
        primary
            .push_tag(
                config.session,
                "data",
                Digest::from_bytes([0x77; 32]),
                TagEvent::Sync,
            )
            .unwrap();
        let new = primary.export_policy_snapshot("p1", 2);
        let records_of = |delta: &PolicyDelta| match &delta.payload {
            DeltaPayload::Snapshot { records } => records.clone(),
            DeltaPayload::Incremental { .. } => panic!("snapshot expected"),
        };
        let (old_records, new_records) = (records_of(&old), records_of(&new));
        assert!(!old_records.is_empty() && old_records != new_records);

        // Sweep the fuse until the resync gets through untouched.
        for fuse in 0.. {
            let (follower, device, disk) = follower_on_device();
            follower.apply_policy_delta(&old).unwrap();
            device.fail_after(fuse);
            let outcome = follower.apply_policy_delta(&new);
            device.crash();
            let held = export_records_from(&crash_image(&disk).view(), "p1");
            assert!(
                held == old_records || held == new_records,
                "crash at device op {fuse} tore the policy: {} records left",
                held.len()
            );
            if outcome.is_ok() {
                assert_eq!(held, new_records, "an acked resync must be durable");
                assert!(fuse > 0, "the sweep must have crossed the resync");
                break;
            }
        }
    }

    /// Stage-then-redeem: N staged deltas share one WAL window (the first
    /// redeemed ticket syncs for all of them), and until a ticket redeems
    /// the delta — though visible and chained — is not in the crash image.
    #[test]
    fn staged_deltas_cost_one_window_and_are_durable_only_once_redeemed() {
        const N: u64 = 5;
        let (primary, _, _, _) = setup();
        let (follower, _device, disk) = follower_on_device();
        follower
            .apply_policy_delta(&primary.export_policy_snapshot("p1", 1))
            .unwrap();
        let key = |i: u64| format!("tag/p1/vol-{i}").into_bytes();
        let windows = || follower.db.read().stats().wal_windows;
        let before = windows();

        let tickets: Vec<CommitTicket> = (0..N)
            .map(|i| {
                let mut changes = ChangeSet::default();
                changes.record_put(key(i), vec![i as u8; 33]);
                follower
                    .stage_policy_delta(&PolicyDelta::incremental("p1", changes, i + 2, i + 1))
                    .unwrap()
            })
            .collect();
        assert_eq!(
            follower.policy_cursor("p1"),
            Some(N + 1),
            "staged = chained"
        );
        assert_eq!(windows(), before, "staging must not sync");
        let image = crash_image(&disk);
        assert!((0..N).all(|i| image.get(&key(i)).is_none()));

        for ticket in tickets {
            ticket.wait().unwrap();
        }
        assert_eq!(windows(), before + 1, "one window for all {N} deltas");
        let image = crash_image(&disk);
        assert!((0..N).all(|i| image.get(&key(i)).is_some()));
    }
}
