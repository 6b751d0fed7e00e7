//! The concurrent service front-end: one [`TmsServer`] is the single entry
//! point many client threads drive simultaneously.
//!
//! The server owns the engine behind an `Arc<Palaemon>` and dispatches a
//! [`TmsRequest`] to the matching engine operation, returning a
//! [`TmsResponse`]. Handles are cheap to clone — give every client thread
//! its own clone and call [`TmsServer::handle`] concurrently; the engine's
//! sharded locks (see [`crate::tms`]) do the rest. When clients outnumber
//! useful threads — thousands of mostly-idle attested sessions — front the
//! server with a [`crate::frontdoor::FrontDoor`] instead: a bounded worker
//! pool drains a shared request queue and resolves per-request completion
//! tickets or callbacks, so idle sessions cost no thread at all.
//!
//! ## Strict commit mode (one commit window per mutation)
//! A server built with [`TmsServer::with_commit_counter`] couples every
//! *state-changing* request to the rollback counter, and does it inside the
//! one window the request already waits on: the engine stages a client
//! mutation's commit *covered* (`Db::commit_stage_covered`), and the leader
//! of its WAL window — after the window's single sync returned `Ok`, before
//! it posts the window's verdict — performs **one**
//! [`BatchedCounter::cover`]`(n)` for the `n` client mutations the window
//! carried. So a mutation parks once, on its commit ticket; nobody queues
//! for the counter; concurrent writers share one sync *and* one increment;
//! and the Fig. 6 order — persist first, cover with the counter, then
//! acknowledge — holds per window: no request is acknowledged before an
//! increment issued *after its window's sync* has completed. The increment
//! runs on whichever thread led the window (usually a request's own
//! `redeem`, which then books it as `Stage::CounterCommit`).
//!
//! A cover failure is its window's verdict: every mutation in the window
//! returns `Err` un-acknowledged while its state is durable and visible —
//! what a failed counter commit has always meant here; the next window
//! increments afresh. Replication applies, catch-up and migration imports
//! stage uncovered (the client's mutation was covered on the shard that
//! took it), so [`crate::counterfile::BatchStats::ops_committed`] counts
//! exactly the client mutations acknowledged, and `increments` the WAL
//! windows that carried one.
//!
//! ## Stage, then redeem
//! [`TmsServer::handle`] is [`TmsServer::stage`] followed by
//! [`Staged::redeem`]: `stage` runs the engine operation up to the point
//! where a mutation's commit sits in the WAL's group-commit window (applied
//! and visible, not yet synced or covered), `redeem` waits for that
//! window's verdict and counts the outcome. A caller with independent work
//! to do — a replica group's primary forwarding the delta to its followers —
//! does it between the two, so the WAL sync and the wire overlap instead of
//! running back to back. Nothing is acknowledged before `redeem` returns
//! `Ok`, so what an acknowledgement means is unchanged. `redeem`'s sleep on
//! the ticket is a declared wait ([`crate::frontdoor::parked`], expected to
//! last as long as the store's last sync did): on a front-door worker the
//! thread's seat serves another request meanwhile, on any other thread it
//! is a plain wait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use palaemon_telemetry::{trace, Collect, MetricSink, Stage};

use palaemon_crypto::sig::VerifyingKey;
use palaemon_crypto::Digest;
use palaemon_db::{CommitCover, CommitTicket, DbError};
use shielded_fs::fs::TagEvent;
use tee_sim::quote::Quote;

use crate::board::{ApprovalRequest, PolicyAction, Vote};
use crate::counterfile::{BatchStats, BatchedCounter};
use crate::error::Result;
use crate::frontdoor;
use crate::policy::Policy;
use crate::tms::{AppConfig, Palaemon, SessionId, TagRecord};

/// One client request against the trust management service.
#[derive(Debug, Clone)]
pub enum TmsRequest {
    /// Create a policy owned by `owner` (board approval if declared).
    CreatePolicy {
        /// Client key that will own the policy.
        owner: VerifyingKey,
        /// The policy to store.
        policy: Box<Policy>,
        /// Approval round issued by [`TmsRequest::BeginApproval`], if any.
        approval: Option<ApprovalRequest>,
        /// Board votes for the approval round.
        votes: Vec<Vote>,
    },
    /// Read a policy back (owner key + board approval when declared).
    ReadPolicy {
        /// Policy name.
        name: String,
        /// The requesting client's key.
        client: VerifyingKey,
        /// Approval round, if the policy declares a board.
        approval: Option<ApprovalRequest>,
        /// Board votes.
        votes: Vec<Vote>,
    },
    /// Replace a policy's content (secure-update path).
    UpdatePolicy {
        /// The requesting client's key.
        client: VerifyingKey,
        /// The new policy content (same name).
        policy: Box<Policy>,
        /// Approval round against the *current* board.
        approval: Option<ApprovalRequest>,
        /// Board votes.
        votes: Vec<Vote>,
    },
    /// Delete a policy and its material.
    DeletePolicy {
        /// Policy name.
        name: String,
        /// The requesting client's key.
        client: VerifyingKey,
        /// Approval round, if the policy declares a board.
        approval: Option<ApprovalRequest>,
        /// Board votes.
        votes: Vec<Vote>,
    },
    /// Start a board approval round; returns the request members sign.
    BeginApproval {
        /// Target policy name.
        policy_name: String,
        /// The CRUD action to approve.
        action: PolicyAction,
        /// Digest of the policy content after the action.
        policy_digest: Digest,
    },
    /// Attest an application and deliver its configuration.
    AttestService {
        /// The application's quote.
        quote: Box<Quote>,
        /// Report-data binding of the app's TLS key.
        tls_key_binding: [u8; 64],
        /// Policy the app runs under.
        policy_name: String,
        /// Service within the policy.
        service_name: String,
    },
    /// Push a volume tag over an attested session.
    PushTag {
        /// The attested session.
        session: SessionId,
        /// Volume name.
        volume: String,
        /// The new file-system tag.
        tag: Digest,
        /// Which event produced the tag.
        event: TagEvent,
    },
    /// Read the expected tag for a session's volume.
    ReadTag {
        /// The attested session.
        session: SessionId,
        /// Volume name.
        volume: String,
    },
    /// Administratively reset a volume tag (post-crash strict-mode path).
    ResetTag {
        /// Policy name.
        policy: String,
        /// Volume name.
        volume: String,
    },
    /// End an attested session.
    CloseSession {
        /// The session to close.
        session: SessionId,
    },
    /// Number of active attested sessions.
    SessionCount,
    /// Number of stored policies.
    PolicyCount,
}

impl TmsRequest {
    /// True when the request mutates service state (and is therefore
    /// covered by the Fig. 6 counter in strict commit mode).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            TmsRequest::CreatePolicy { .. }
                | TmsRequest::UpdatePolicy { .. }
                | TmsRequest::DeletePolicy { .. }
                | TmsRequest::PushTag { .. }
                | TmsRequest::ResetTag { .. }
        )
    }

    /// True when any fresh replica answers the request from one database
    /// snapshot, consuming, mirroring and waiting on nothing: a tag read,
    /// and a policy read that carries no approval round (an approval's
    /// single-use nonce is consumed, so that read is served like a write).
    /// The front door runs these on the submitting thread; a replicated
    /// router may serve them from a follower.
    pub fn is_snapshot_read(&self) -> bool {
        matches!(
            self,
            TmsRequest::ReadTag { .. } | TmsRequest::ReadPolicy { approval: None, .. }
        )
    }

    /// The policy name this request is keyed by, when it targets exactly
    /// one policy. This is what a sharded deployment (`palaemon-cluster`)
    /// hashes to pick the owning instance; `None` means the request is
    /// either session-keyed (see [`TmsRequest::session_key`]) or an
    /// aggregate over all instances.
    ///
    /// Both key functions match exhaustively on purpose: a new request
    /// variant must declare its routing class here before it compiles.
    pub fn policy_key(&self) -> Option<&str> {
        match self {
            TmsRequest::CreatePolicy { policy, .. } | TmsRequest::UpdatePolicy { policy, .. } => {
                Some(&policy.name)
            }
            TmsRequest::ReadPolicy { name, .. } | TmsRequest::DeletePolicy { name, .. } => {
                Some(name)
            }
            TmsRequest::BeginApproval { policy_name, .. }
            | TmsRequest::AttestService { policy_name, .. } => Some(policy_name),
            TmsRequest::ResetTag { policy, .. } => Some(policy),
            TmsRequest::PushTag { .. }
            | TmsRequest::ReadTag { .. }
            | TmsRequest::CloseSession { .. }
            | TmsRequest::SessionCount
            | TmsRequest::PolicyCount => None,
        }
    }

    /// The attested session this request is pinned to, if any. Sessions are
    /// bound to the instance that attested them, so a router must keep
    /// dispatching these to that same instance.
    pub fn session_key(&self) -> Option<SessionId> {
        match self {
            TmsRequest::PushTag { session, .. }
            | TmsRequest::ReadTag { session, .. }
            | TmsRequest::CloseSession { session } => Some(*session),
            TmsRequest::CreatePolicy { .. }
            | TmsRequest::ReadPolicy { .. }
            | TmsRequest::UpdatePolicy { .. }
            | TmsRequest::DeletePolicy { .. }
            | TmsRequest::BeginApproval { .. }
            | TmsRequest::AttestService { .. }
            | TmsRequest::ResetTag { .. }
            | TmsRequest::SessionCount
            | TmsRequest::PolicyCount => None,
        }
    }
}

/// The successful outcome of a [`TmsRequest`].
#[derive(Debug, Clone)]
pub enum TmsResponse {
    /// The request completed with no payload.
    Done,
    /// A policy (from [`TmsRequest::ReadPolicy`]).
    Policy(Box<Policy>),
    /// An approval round (from [`TmsRequest::BeginApproval`]).
    Approval(ApprovalRequest),
    /// An application configuration (from [`TmsRequest::AttestService`]).
    Config(Box<AppConfig>),
    /// A tag record, if one is stored (from [`TmsRequest::ReadTag`]).
    Tag(Option<TagRecord>),
    /// A count (sessions or policies).
    Count(usize),
}

/// Dispatch statistics of one server (shared across clones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests that completed successfully.
    pub ok: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Batched counter statistics, when strict commit mode is on.
    pub counter: Option<BatchStats>,
}

impl Collect for ServerStats {
    fn collect(&self, sink: &mut MetricSink) {
        sink.counter("server_requests_ok_total", self.ok);
        sink.counter("server_requests_failed_total", self.failed);
        if let Some(counter) = &self.counter {
            counter.collect(sink);
        }
    }
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    failed: AtomicU64,
}

/// A fault-injection hook consulted before every dispatched request.
/// Returning an error fails the request without touching the engine — the
/// deterministic fault harness of `palaemon-cluster` uses this to "kill" a
/// replica at a named operation index (from which point the replica answers
/// nothing, so the next health probe quarantines it).
pub type FaultHook = Arc<dyn Fn(&TmsRequest) -> Result<()> + Send + Sync>;

/// The concurrent front-end. Clone freely; all clones share the engine,
/// the commit counter, the statistics and any installed fault hook.
#[derive(Clone)]
pub struct TmsServer {
    engine: Arc<Palaemon>,
    commit_counter: Option<Arc<BatchedCounter>>,
    counters: Arc<Counters>,
    fault_hook: Option<FaultHook>,
}

impl std::fmt::Debug for TmsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmsServer")
            .field("engine", &self.engine)
            .field("strict_commit", &self.commit_counter.is_some())
            .finish()
    }
}

/// A request between [`TmsServer::stage`] and [`Staged::redeem`]: the
/// engine has answered it, and — for a mutation — its commit sits in the
/// WAL's group-commit window, applied and visible but not yet durable.
#[derive(Debug)]
#[must_use = "a staged request is neither durable nor counted until redeem()"]
pub struct Staged<'a> {
    server: &'a TmsServer,
    response: TmsResponse,
    /// The mutation's commit window (`None` for non-mutations).
    ticket: Option<CommitTicket>,
}

impl Staged<'_> {
    /// The second half of [`TmsServer::handle`]: waits for the staged
    /// commit's window verdict — durable and, in strict commit mode, covered
    /// by the window leader's Fig. 6 counter increment — and counts the
    /// request as ok or failed. Non-mutations have nothing to wait for.
    ///
    /// # Errors
    /// The commit window's storage failure, or its cover's.
    pub fn redeem(self) -> Result<TmsResponse> {
        let committed = self.ticket.map_or(Ok(()), |ticket| {
            let sync = trace::start();
            // The one sleep of the single-node serving path: a front-door
            // worker lends its seat out for as long as the device takes.
            let verdict = frontdoor::parked(ticket.expected_wait(), || ticket.wait());
            trace::finish(Stage::EngineApply, sync);
            verdict
        });
        self.server
            .count(committed.map(|()| self.response).map_err(Into::into))
    }
}

impl TmsServer {
    /// Serves `engine` without a rollback-counter coupling.
    pub fn new(engine: Arc<Palaemon>) -> Self {
        TmsServer {
            engine,
            commit_counter: None,
            counters: Arc::new(Counters::default()),
            fault_hook: None,
        }
    }

    /// Serves `engine` in strict commit mode: installs `counter` as the
    /// cover of the engine's commit windows, so every client mutation is
    /// acknowledged only behind a `counter` increment issued after its
    /// window's sync (see the module docs).
    ///
    /// # Panics
    /// When `engine` already serves another commit counter.
    pub fn with_commit_counter(engine: Arc<Palaemon>, counter: Arc<BatchedCounter>) -> Self {
        let cover: CommitCover = {
            let counter = Arc::clone(&counter);
            Arc::new(move |mutations| {
                let increment = trace::start();
                let covered = counter.cover(mutations);
                trace::finish(Stage::CounterCommit, increment);
                match covered {
                    Ok(_) => Ok(()),
                    Err(e) => Err(DbError::Storage(format!("rollback counter: {e}"))),
                }
            })
        };
        engine.install_commit_cover(cover);
        TmsServer {
            engine,
            commit_counter: Some(counter),
            counters: Arc::new(Counters::default()),
            fault_hook: None,
        }
    }

    /// Installs a [`FaultHook`] (fault-injection test builds). The hook is
    /// shared by every clone made *from this value*; install it before
    /// handing the server out.
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// The shared engine (for lifecycle paths that need direct access).
    pub fn engine(&self) -> &Arc<Palaemon> {
        &self.engine
    }

    /// Handles one request. Safe to call from any number of threads.
    ///
    /// # Errors
    /// Whatever the dispatched engine operation returns.
    pub fn handle(&self, request: TmsRequest) -> Result<TmsResponse> {
        self.stage(request)?.redeem()
    }

    /// The first half of [`TmsServer::handle`]: runs the engine operation
    /// and returns its answer with the mutation's commit *staged* — in the
    /// WAL's group-commit window, visible, not yet durable. The request is
    /// neither acknowledged nor counted until [`Staged::redeem`].
    ///
    /// # Errors
    /// Whatever the dispatched engine operation returns (counted as a
    /// failed request; there is nothing to redeem).
    pub fn stage(&self, request: TmsRequest) -> Result<Staged<'_>> {
        let apply = trace::start();
        let staged = match &self.fault_hook {
            Some(hook) => hook(&request).and_then(|()| self.dispatch(request)),
            None => self.dispatch(request),
        };
        trace::finish(Stage::EngineApply, apply);
        match staged {
            Ok((response, ticket)) => Ok(Staged {
                server: self,
                response,
                ticket,
            }),
            Err(e) => self.count(Err(e)),
        }
    }

    fn count<T>(&self, result: Result<T>) -> Result<T> {
        let outcome = if result.is_ok() {
            &self.counters.ok
        } else {
            &self.counters.failed
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Runs the engine operation; a mutation comes back with the ticket of
    /// the commit window it staged into.
    fn dispatch(&self, request: TmsRequest) -> Result<(TmsResponse, Option<CommitTicket>)> {
        let done = |ticket| (TmsResponse::Done, Some(ticket));
        let read = |response| (response, None);
        match request {
            TmsRequest::CreatePolicy {
                owner,
                policy,
                approval,
                votes,
            } => self
                .engine
                .stage_create_policy(&owner, *policy, approval.as_ref(), &votes)
                .map(done),
            TmsRequest::ReadPolicy {
                name,
                client,
                approval,
                votes,
            } => self
                .engine
                .read_policy(&name, &client, approval.as_ref(), &votes)
                .map(|p| read(TmsResponse::Policy(Box::new(p)))),
            TmsRequest::UpdatePolicy {
                client,
                policy,
                approval,
                votes,
            } => self
                .engine
                .stage_update_policy(&client, *policy, approval.as_ref(), &votes)
                .map(done),
            TmsRequest::DeletePolicy {
                name,
                client,
                approval,
                votes,
            } => self
                .engine
                .stage_delete_policy(&name, &client, approval.as_ref(), &votes)
                .map(done),
            TmsRequest::BeginApproval {
                policy_name,
                action,
                policy_digest,
            } => Ok(read(TmsResponse::Approval(self.engine.begin_approval(
                &policy_name,
                action,
                policy_digest,
            )))),
            TmsRequest::AttestService {
                quote,
                tls_key_binding,
                policy_name,
                service_name,
            } => self
                .engine
                .attest_service(&quote, &tls_key_binding, &policy_name, &service_name)
                .map(|c| read(TmsResponse::Config(Box::new(c)))),
            TmsRequest::PushTag {
                session,
                volume,
                tag,
                event,
            } => self
                .engine
                .stage_push_tag(session, &volume, tag, event)
                .map(done),
            TmsRequest::ReadTag { session, volume } => self
                .engine
                .read_tag(session, &volume)
                .map(|t| read(TmsResponse::Tag(t))),
            TmsRequest::ResetTag { policy, volume } => {
                Ok(done(self.engine.stage_reset_tag(&policy, &volume)))
            }
            TmsRequest::CloseSession { session } => {
                self.engine.close_session(session);
                Ok(read(TmsResponse::Done))
            }
            TmsRequest::SessionCount => Ok(read(TmsResponse::Count(self.engine.session_count()))),
            TmsRequest::PolicyCount => Ok(read(TmsResponse::Count(self.engine.policy_count()))),
        }
    }

    /// Dispatch statistics (shared across all clones of this server).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            ok: self.counters.ok.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            counter: self.commit_counter.as_ref().map(|c| c.stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counterfile::MemFileCounter;
    use crate::tms::Palaemon;
    use palaemon_crypto::aead::AeadKey;
    use palaemon_crypto::sig::SigningKey;
    use palaemon_db::Db;
    use shielded_fs::store::{BlockStore, BufferedStore, MemStore};
    use tee_sim::platform::{Microcode, Platform};
    use tee_sim::quote::{create_report, quote_report};

    const DB_KEY: [u8; 32] = [5; 32];

    fn server(strict: bool) -> (TmsServer, Platform, Digest, VerifyingKey) {
        let counter = strict.then(|| Arc::new(BatchedCounter::new(MemFileCounter::new())));
        server_over(Box::new(MemStore::new()), counter)
    }

    /// A server over `store` — strict when given a counter — holding policy
    /// `srv` (service `app`, volume `data`).
    fn server_over(
        store: Box<dyn BlockStore>,
        counter: Option<Arc<BatchedCounter>>,
    ) -> (TmsServer, Platform, Digest, VerifyingKey) {
        let platform = Platform::new("srv-host", Microcode::PostForeshadow);
        let db = Db::create(store, AeadKey::from_bytes(DB_KEY)).expect("create db");
        let engine = Arc::new(Palaemon::new(
            db,
            SigningKey::from_seed(b"srv"),
            Digest::ZERO,
            13,
        ));
        engine.register_platform(platform.id(), platform.qe_verifying_key());
        let server = match counter {
            Some(counter) => TmsServer::with_commit_counter(engine, counter),
            None => TmsServer::new(engine),
        };
        let mre = Digest::from_bytes([0x31; 32]);
        let owner = SigningKey::from_seed(b"owner").verifying_key();
        let policy = Policy::parse(&format!(
            "name: srv\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
             volumes: [\"data\"]\nvolumes:\n  - name: data\n",
            mre.to_hex()
        ))
        .unwrap();
        server
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(policy),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
        (server, platform, mre, owner)
    }

    fn attest(server: &TmsServer, platform: &Platform, mre: Digest) -> SessionId {
        let binding = [0u8; 64];
        let report = create_report(platform, mre, binding);
        let quote = quote_report(platform, &report).unwrap();
        match server
            .handle(TmsRequest::AttestService {
                quote: Box::new(quote),
                tls_key_binding: binding,
                policy_name: "srv".into(),
                service_name: "app".into(),
            })
            .unwrap()
        {
            TmsResponse::Config(config) => config.session,
            other => panic!("expected Config, got {other:?}"),
        }
    }

    #[test]
    fn dispatches_full_request_surface() {
        let (server, platform, mre, owner) = server(false);
        let session = attest(&server, &platform, mre);
        server
            .handle(TmsRequest::PushTag {
                session,
                volume: "data".into(),
                tag: Digest::from_bytes([7; 32]),
                event: TagEvent::Sync,
            })
            .unwrap();
        match server
            .handle(TmsRequest::ReadTag {
                session,
                volume: "data".into(),
            })
            .unwrap()
        {
            TmsResponse::Tag(Some(rec)) => assert_eq!(rec.tag, Digest::from_bytes([7; 32])),
            other => panic!("expected stored tag, got {other:?}"),
        }
        match server
            .handle(TmsRequest::ReadPolicy {
                name: "srv".into(),
                client: owner,
                approval: None,
                votes: Vec::new(),
            })
            .unwrap()
        {
            TmsResponse::Policy(p) => assert_eq!(p.name, "srv"),
            other => panic!("expected policy, got {other:?}"),
        }
        assert!(matches!(
            server.handle(TmsRequest::SessionCount).unwrap(),
            TmsResponse::Count(1)
        ));
        server.handle(TmsRequest::CloseSession { session }).unwrap();
        assert!(matches!(
            server.handle(TmsRequest::SessionCount).unwrap(),
            TmsResponse::Count(0)
        ));
        let stats = server.stats();
        assert!(stats.ok >= 6);
        assert_eq!(stats.failed, 0);
        assert!(stats.counter.is_none());
    }

    #[test]
    fn request_keys_partition_the_protocol() {
        // Every request is policy-keyed, session-keyed or an aggregate —
        // the invariant `palaemon-cluster`'s routing relies on.
        let policy_keyed = TmsRequest::ReadPolicy {
            name: "p".into(),
            client: SigningKey::from_seed(b"k").verifying_key(),
            approval: None,
            votes: Vec::new(),
        };
        assert_eq!(policy_keyed.policy_key(), Some("p"));
        assert_eq!(policy_keyed.session_key(), None);
        let session_keyed = TmsRequest::ReadTag {
            session: SessionId(7),
            volume: "v".into(),
        };
        assert_eq!(session_keyed.policy_key(), None);
        assert_eq!(session_keyed.session_key(), Some(SessionId(7)));
        let aggregate = TmsRequest::PolicyCount;
        assert_eq!(aggregate.policy_key(), None);
        assert_eq!(aggregate.session_key(), None);
        // Attestation routes by policy (that is where the session gets
        // pinned); reset routes by the policy it repairs.
        let reset = TmsRequest::ResetTag {
            policy: "p2".into(),
            volume: "v".into(),
        };
        assert_eq!(reset.policy_key(), Some("p2"));
    }

    #[test]
    fn snapshot_reads_are_the_approval_free_reads() {
        let (_, platform, mre, owner) = server(false);
        let read_policy = |approval| TmsRequest::ReadPolicy {
            name: "srv".into(),
            client: owner,
            approval,
            votes: Vec::new(),
        };
        let round = ApprovalRequest {
            policy_name: "srv".into(),
            action: crate::board::PolicyAction::Read,
            policy_digest: Digest::ZERO,
            nonce: 1,
        };
        let binding = [0u8; 64];
        let quote = quote_report(&platform, &create_report(&platform, mre, binding)).unwrap();
        let session = SessionId(1);
        let snapshot = [
            TmsRequest::ReadTag {
                session,
                volume: "data".into(),
            },
            read_policy(None),
        ];
        let not = [
            read_policy(Some(round)),
            TmsRequest::AttestService {
                quote: Box::new(quote),
                tls_key_binding: binding,
                policy_name: "srv".into(),
                service_name: "app".into(),
            },
            TmsRequest::CloseSession { session },
            TmsRequest::BeginApproval {
                policy_name: "srv".into(),
                action: crate::board::PolicyAction::Read,
                policy_digest: Digest::ZERO,
            },
            TmsRequest::PushTag {
                session,
                volume: "data".into(),
                tag: Digest::ZERO,
                event: TagEvent::Sync,
            },
            TmsRequest::ResetTag {
                policy: "srv".into(),
                volume: "data".into(),
            },
            TmsRequest::SessionCount,
            TmsRequest::PolicyCount,
        ];
        assert!(snapshot.iter().all(TmsRequest::is_snapshot_read));
        assert!(!snapshot.iter().any(TmsRequest::is_mutation));
        assert!(!not.iter().any(TmsRequest::is_snapshot_read));
    }

    #[test]
    fn errors_are_counted_and_propagated() {
        let (server, _, _, owner) = server(false);
        let err = server
            .handle(TmsRequest::ReadPolicy {
                name: "ghost".into(),
                client: owner,
                approval: None,
                votes: Vec::new(),
            })
            .unwrap_err();
        assert!(matches!(err, crate::PalaemonError::PolicyNotFound(_)));
        assert_eq!(server.stats().failed, 1);
    }

    #[test]
    fn strict_commit_mode_covers_mutations_with_counter_increments() {
        let (server, platform, mre, _) = server(true);
        let session = attest(&server, &platform, mre);
        for i in 0..5u8 {
            server
                .handle(TmsRequest::PushTag {
                    session,
                    volume: "data".into(),
                    tag: Digest::from_bytes([i; 32]),
                    event: TagEvent::Sync,
                })
                .unwrap();
        }
        let counter = server.stats().counter.unwrap();
        // CreatePolicy + 5 tag pushes are mutations; reads/attest are not.
        assert_eq!(counter.ops_committed, 6);
        assert!(counter.increments <= counter.ops_committed);
        server
            .handle(TmsRequest::ReadTag {
                session,
                volume: "data".into(),
            })
            .unwrap();
        assert_eq!(
            server.stats().counter.unwrap().ops_committed,
            6,
            "reads must not touch the counter"
        );
    }

    #[test]
    fn strict_writers_pay_one_increment_per_commit_window() {
        let (server, platform, mre, _) = server(true);
        let sessions: Vec<SessionId> = (0..8).map(|_| attest(&server, &platform, mre)).collect();
        let before = server.stats();
        let windows_before = server.engine().db_stats().wal_windows;
        std::thread::scope(|scope| {
            for (t, &session) in sessions.iter().enumerate() {
                let server = server.clone();
                scope.spawn(move || {
                    for i in 0..20u8 {
                        server
                            .handle(TmsRequest::PushTag {
                                session,
                                volume: "data".into(),
                                tag: Digest::from_bytes([t as u8 * 20 + i; 32]),
                                event: TagEvent::Sync,
                            })
                            .unwrap();
                    }
                });
            }
        });
        let after = server.stats();
        let (c0, c1) = (before.counter.unwrap(), after.counter.unwrap());
        assert_eq!(c1.ops_committed - c0.ops_committed, 160);
        // Every commit meanwhile was a covered PushTag, so every window
        // flushed meanwhile paid exactly one increment — nobody queued for
        // the counter on their own.
        assert_eq!(
            c1.increments - c0.increments,
            server.engine().db_stats().wal_windows - windows_before,
        );
        assert_eq!((after.ok + after.failed) - (before.ok + before.failed), 160);
        assert_eq!(after.failed, 0);
    }

    /// `sessions` closed-loop strict sessions, twenty pushes each, through a
    /// front door of `workers` seats over a device whose `sync` takes a
    /// millisecond. Checks that nothing was lost or double-counted and that
    /// every window paid exactly one increment; returns the windows it took
    /// and the most commits any one of them carried.
    fn strict_sessions_through_the_door(workers: usize, sessions: usize) -> (u64, u32) {
        use crate::frontdoor::FrontDoor;
        /// A device whose `sync` takes a millisecond.
        struct SlowSync(MemStore);
        impl BlockStore for SlowSync {
            fn get(&self, name: &str) -> Option<Vec<u8>> {
                self.0.get(name)
            }
            fn put(&self, name: &str, data: Vec<u8>) {
                self.0.put(name, data);
            }
            fn delete(&self, name: &str) {
                self.0.delete(name);
            }
            fn list(&self) -> Vec<String> {
                self.0.list()
            }
            fn sync(&self) -> shielded_fs::Result<()> {
                std::thread::sleep(std::time::Duration::from_millis(1));
                self.0.sync()
            }
        }
        let counter = Arc::new(BatchedCounter::new(MemFileCounter::new()));
        let (server, platform, mre, _) =
            server_over(Box::new(SlowSync(MemStore::new())), Some(counter));
        let sessions: Vec<SessionId> = (0..sessions)
            .map(|_| attest(&server, &platform, mre))
            .collect();
        let pushes = 20 * sessions.len() as u64;
        let before = server.stats();
        let windows_before = server.engine().db_stats().wal_windows;
        let door = FrontDoor::with_capacity(server.clone(), workers, 64);
        std::thread::scope(|scope| {
            for &session in &sessions {
                let door = &door;
                scope.spawn(move || {
                    for i in 0..20u8 {
                        door.submit(TmsRequest::PushTag {
                            session,
                            volume: "data".into(),
                            tag: Digest::from_bytes([i; 32]),
                            event: TagEvent::Sync,
                        })
                        .wait()
                        .unwrap();
                    }
                });
            }
        });
        let drained = door.drain();
        assert_eq!(drained.submitted, drained.completed + drained.rejected);
        let after = server.stats();
        let (c0, c1) = (before.counter.unwrap(), after.counter.unwrap());
        let db = server.engine().db_stats();
        let windows = db.wal_windows - windows_before;
        assert_eq!(c1.ops_committed - c0.ops_committed, pushes);
        assert_eq!(c1.increments - c0.increments, windows);
        assert_eq!(
            (after.ok + after.failed) - (before.ok + before.failed),
            pushes
        );
        assert_eq!(after.failed, 0);
        let fullest = db.commits_per_window.iter().map(|&(size, _)| size).max();
        (windows, fullest.unwrap_or(0))
    }

    #[test]
    fn strict_front_door_sessions_fill_the_window() {
        // Sixteen closed-loop sessions: every verdict frees the writers
        // parked on it, and each comes straight back with its next push.
        // The window they come back to must still be open — nothing above
        // the storage engine knows why it is.
        let (windows, _) = strict_sessions_through_the_door(8, 16);
        // A leader that closed its window the instant it was elected would
        // see the returning writers alternate between two windows (≈ 80 of
        // them); one that waits for all but the last keeps them to one.
        assert!(
            windows <= 60,
            "320 pushes over 8 workers took {windows} windows"
        );
    }

    #[test]
    fn a_window_fills_with_the_requests_in_flight_not_with_the_pool() {
        // Eight closed-loop writers over two seats. A worker asleep on its
        // commit ticket gives its seat back (`Staged::redeem` declares the
        // wait), so the other six stage into the same window; were the seat
        // held across the sync, no window could carry more than two.
        let (_, fullest) = strict_sessions_through_the_door(2, 8);
        assert!(
            fullest > 2,
            "8 writers over 2 seats never put more than {fullest} in a window"
        );
    }

    #[test]
    fn a_failed_cover_fails_the_request_unacked_with_its_state_visible() {
        /// Fails exactly its second increment.
        struct Flaky(u64);
        impl crate::counterfile::MonotonicCounter for Flaky {
            fn increment(&mut self) -> Result<u64> {
                self.0 += 1;
                if self.0 == 2 {
                    return Err(crate::PalaemonError::Tee("counter device glitch".into()));
                }
                Ok(self.0)
            }
        }
        let counter = Arc::new(BatchedCounter::new(Flaky(0)));
        // Increment 1 covers the fixture's CreatePolicy.
        let (server, platform, mre, _) =
            server_over(Box::new(MemStore::new()), Some(Arc::clone(&counter)));
        let session = attest(&server, &platform, mre);
        let push = |byte: u8| {
            server.handle(TmsRequest::PushTag {
                session,
                volume: "data".into(),
                tag: Digest::from_bytes([byte; 32]),
                event: TagEvent::Sync,
            })
        };
        let err = push(1).unwrap_err();
        assert!(
            matches!(&err, crate::PalaemonError::Db(why) if why.contains("counter device glitch")),
            "the cover's failure is the request's: {err:?}"
        );
        // Un-acked and uncounted, yet applied: exactly a failed counter commit.
        assert_eq!(counter.stats().ops_committed, 1);
        assert_eq!(server.stats().failed, 1);
        match server
            .handle(TmsRequest::ReadTag {
                session,
                volume: "data".into(),
            })
            .unwrap()
        {
            TmsResponse::Tag(Some(rec)) => assert_eq!(rec.tag, Digest::from_bytes([1; 32])),
            other => panic!("expected the un-acked tag to be visible, got {other:?}"),
        }
        // The next window increments afresh.
        push(2).unwrap();
        assert_eq!(counter.stats().ops_committed, 2);
        assert_eq!(counter.value(), 3);
    }

    #[test]
    fn an_ack_means_in_the_crash_image_and_covered_after_its_sync() {
        /// A counter device that photographs the database's crash image —
        /// what a power cut at that instant would leave — at every increment.
        struct Imaging {
            device: Arc<AtomicU64>,
            disk: MemStore,
            images: Arc<std::sync::Mutex<Vec<(u64, MemStore)>>>,
        }
        impl crate::counterfile::MonotonicCounter for Imaging {
            fn increment(&mut self) -> Result<u64> {
                let value = self.device.fetch_add(1, Ordering::SeqCst) + 1;
                let image = MemStore::new();
                image.restore(self.disk.snapshot());
                self.images.lock().unwrap().push((value, image));
                Ok(value)
            }
        }
        let disk = MemStore::new();
        let buffered = BufferedStore::new(disk.clone());
        let device = Arc::new(AtomicU64::new(0));
        let images = Arc::new(std::sync::Mutex::new(Vec::new()));
        let counter = Arc::new(BatchedCounter::new(Imaging {
            device: Arc::clone(&device),
            disk: disk.clone(),
            images: Arc::clone(&images),
        }));
        let (server, platform, mre, _) =
            server_over(Box::new(buffered.clone()), Some(Arc::clone(&counter)));
        let session = attest(&server, &platform, mre);
        let tag = Digest::from_bytes([0xAC; 32]);
        server
            .handle(TmsRequest::PushTag {
                session,
                volume: "data".into(),
                tag,
                event: TagEvent::Sync,
            })
            .unwrap();
        let covering = counter.value();
        let holds_the_tag = |image: MemStore| {
            let db = Db::open(Box::new(image), AeadKey::from_bytes(DB_KEY)).expect("reopen");
            db.get(b"tag/srv/data")
                .is_some_and(|v| v.starts_with(tag.as_bytes()))
        };
        // The increment that covered the ack was issued after the sync that
        // made the mutation durable: the image it saw already holds it.
        let (_, at_cover) = images
            .lock()
            .unwrap()
            .iter()
            .find(|(value, _)| *value == covering)
            .cloned()
            .expect("the covering increment was performed");
        assert!(holds_the_tag(at_cover), "covered before durable");
        // Power cut after the ack: everything past the last sync is gone, the
        // mutation is not, and the counter reads back at or past its cover.
        drop(server);
        buffered.crash();
        assert!(holds_the_tag(disk), "acked mutation lost by the crash");
        assert!(device.load(Ordering::SeqCst) >= covering);
    }

    #[test]
    fn fault_hook_kills_the_server_at_the_named_operation() {
        use std::sync::atomic::AtomicU64;

        let (server, _, _, owner) = server(false);
        // "Kill" the server at its 3rd handled request: everything from
        // that operation on fails without touching the engine.
        let seen = AtomicU64::new(0);
        let server = server.with_fault_hook(Arc::new(move |_req| {
            if seen.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                return Err(crate::PalaemonError::Fs("replica killed".into()));
            }
            Ok(())
        }));
        let read = TmsRequest::ReadPolicy {
            name: "srv".into(),
            client: owner,
            approval: None,
            votes: Vec::new(),
        };
        assert!(server.handle(read.clone()).is_ok());
        assert!(server.handle(read.clone()).is_ok());
        for _ in 0..3 {
            assert!(matches!(
                server.handle(read.clone()),
                Err(crate::PalaemonError::Fs(_))
            ));
        }
        let stats = server.stats();
        assert_eq!(stats.failed, 3, "killed requests are counted as failed");
        // Clones share the hook: the kill persists across them.
        assert!(server.clone().handle(read).is_err());
    }

    #[test]
    fn concurrent_clients_share_one_server() {
        let (server, platform, mre, _) = server(true);
        let binding = [0u8; 64];
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let server = server.clone();
                // Quotes come from the (single) platform's quoting enclave;
                // each client carries its own into its thread.
                let report = create_report(&platform, mre, binding);
                let quote = quote_report(&platform, &report).unwrap();
                std::thread::spawn(move || {
                    let session = match server
                        .handle(TmsRequest::AttestService {
                            quote: Box::new(quote),
                            tls_key_binding: binding,
                            policy_name: "srv".into(),
                            service_name: "app".into(),
                        })
                        .unwrap()
                    {
                        TmsResponse::Config(config) => config.session,
                        other => panic!("expected Config, got {other:?}"),
                    };
                    for i in 0..10u8 {
                        server
                            .handle(TmsRequest::PushTag {
                                session,
                                volume: "data".into(),
                                tag: Digest::from_bytes([t as u8 * 16 + i; 32]),
                                event: TagEvent::Sync,
                            })
                            .unwrap();
                        server
                            .handle(TmsRequest::ReadTag {
                                session,
                                volume: "data".into(),
                            })
                            .unwrap();
                    }
                    server.handle(TmsRequest::CloseSession { session }).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.engine().session_count(), 0);
        let stats = server.stats();
        assert_eq!(stats.failed, 0);
        let counter = stats.counter.unwrap();
        assert_eq!(counter.ops_committed, 81); // 1 create + 80 pushes
        assert!(counter.increments <= counter.ops_committed);
    }
}
