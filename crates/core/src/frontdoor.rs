//! The event-loop RPC front door: a bounded worker pool multiplexing many
//! idle client sessions over submitted [`TmsRequest`]s.
//!
//! [`TmsServer::handle`] is synchronous — each in-flight request pins the
//! calling thread until the engine answers. That is the right primitive
//! for a handful of hot clients, but a production deployment fronts
//! *thousands* of mostly-idle attested sessions: pinning a thread per
//! connected client burns a stack and a scheduler slot on connections
//! that speak once a minute. A [`FrontDoor`] decouples the two
//! populations: any number of client handles [`FrontDoor::submit`]
//! requests onto a bounded queue and park on cheap completion
//! [`Ticket`]s (or register a callback with [`FrontDoor::submit_with`]),
//! while a small fixed worker pool — sized to the engine's actual
//! parallelism, not the client count — drains the queue through the
//! server. One process multiplexes thousands of sessions over a few
//! threads; the queue bound applies backpressure instead of letting a
//! flood of requests pile up unboundedly ([`FrontDoor::try_submit`]
//! refuses instead of blocking, for callers that shed load).
//!
//! The door is generic over the [`Door`] backend it fronts: a single
//! [`TmsServer`] (the default) or anything else that answers a
//! [`TmsRequest`] synchronously, such as a sharded cluster router. When
//! built [`FrontDoor::with_telemetry`], the door is also where request
//! tracing begins: a trace id is minted at submit, the queue wait is
//! measured from enqueue to worker pickup, and the worker installs the
//! trace context so the engine and replication layers can time their
//! stages without any signature changes (see `palaemon_telemetry::trace`).
//!
//! The pipelined replication data plane is the same idea on the other
//! side of the engine: see `palaemon-cluster`'s router, whose per-follower
//! background channels take the wire off the mutation ack path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use palaemon_telemetry::{trace, Collect, MetricSink, Stage, Telemetry, TraceCtx};

use crate::error::PalaemonError;
use crate::server::{TmsRequest, TmsResponse, TmsServer};

/// A synchronous request backend a [`FrontDoor`] pool can drain into:
/// one engine ([`TmsServer`]) or a sharded cluster router.
pub trait Door: Clone + Send + 'static {
    /// The backend's error type (reaches the ticket unchanged).
    type Error: Send + 'static;

    /// Answers one request, blocking the calling worker until done.
    fn call(&self, request: TmsRequest) -> std::result::Result<TmsResponse, Self::Error>;
}

impl Door for TmsServer {
    type Error = PalaemonError;

    fn call(&self, request: TmsRequest) -> std::result::Result<TmsResponse, PalaemonError> {
        self.handle(request)
    }
}

/// Where a completed request's result goes.
enum Sink<E> {
    /// Resolve a ticket a client is parked on.
    Ticket(Arc<TicketState<E>>),
    /// Invoke a completion callback on the worker thread.
    Callback(Box<dyn FnOnce(std::result::Result<TmsResponse, E>) + Send>),
}

struct Job<E> {
    request: TmsRequest,
    sink: Sink<E>,
    /// Trace id + enqueue instant, when the door is telemetry-backed and
    /// tracing is on: the worker turns the pair into the queue-wait stage.
    trace: Option<(u64, Instant)>,
}

struct DoorQueue<E> {
    jobs: VecDeque<Job<E>>,
    shutdown: bool,
}

/// State shared between submitters and workers.
struct DoorShared<E> {
    queue: Mutex<DoorQueue<E>>,
    /// Signals workers that a job (or shutdown) is ready.
    ready: Condvar,
    /// Signals blocked submitters that queue space freed up.
    space: Condvar,
    capacity: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    queue_peak: AtomicUsize,
    /// The telemetry plane minting trace ids and absorbing finished
    /// traces, when attached.
    telemetry: Option<Arc<Telemetry>>,
}

/// State of one submitted request's completion ticket.
struct TicketState<E> {
    slot: Mutex<Option<std::result::Result<TmsResponse, E>>>,
    done: Condvar,
}

/// A parked client's handle on one in-flight request. Cheap: a parked
/// ticket is a mutex/condvar pair, not a thread.
pub struct Ticket<E = PalaemonError> {
    state: Arc<TicketState<E>>,
}

impl<E> std::fmt::Debug for Ticket<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<E> Ticket<E> {
    fn new() -> Self {
        Ticket {
            state: Arc::new(TicketState {
                slot: Mutex::new(None),
                done: Condvar::new(),
            }),
        }
    }

    /// True once the result is available ([`Ticket::wait`] won't block).
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().unwrap().is_some()
    }

    /// The result, if already available — the ticket stays waitable
    /// otherwise.
    pub fn try_take(&self) -> Option<std::result::Result<TmsResponse, E>> {
        self.state.slot.lock().unwrap().take()
    }

    /// Parks until the request completes and returns its result.
    pub fn wait(self) -> std::result::Result<TmsResponse, E> {
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.done.wait(slot).unwrap();
        }
    }
}

/// Point-in-time counters of a [`FrontDoor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontDoorStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Queue bound (backpressure threshold).
    pub capacity: usize,
    /// Submission attempts — accepted *and* refused, so that after a
    /// drain `submitted == completed + rejected` holds exactly.
    pub submitted: u64,
    /// Requests fully processed (ticket resolved / callback run).
    pub completed: u64,
    /// Submissions [`FrontDoor::try_submit`] refused at saturation.
    pub rejected: u64,
    /// Requests queued right now.
    pub queue_depth: usize,
    /// Deepest the queue has been — how far ahead of the pool the
    /// submitters ran.
    pub queue_peak: usize,
}

impl Collect for FrontDoorStats {
    fn collect(&self, sink: &mut MetricSink) {
        sink.gauge("frontdoor_workers", self.workers as f64);
        sink.gauge("frontdoor_capacity", self.capacity as f64);
        sink.counter("frontdoor_submitted_total", self.submitted);
        sink.counter("frontdoor_completed_total", self.completed);
        sink.counter("frontdoor_rejected_total", self.rejected);
        sink.gauge("frontdoor_queue_depth", self.queue_depth as f64);
        sink.gauge("frontdoor_queue_peak", self.queue_peak as f64);
    }
}

/// The bounded thread-pool front door over one [`Door`] backend (a
/// [`TmsServer`] by default). Dropping it drains the queue (every
/// accepted request still completes) and joins the workers.
pub struct FrontDoor<D: Door = TmsServer> {
    shared: Arc<DoorShared<D::Error>>,
    workers: Vec<JoinHandle<()>>,
}

impl<D: Door> std::fmt::Debug for FrontDoor<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FrontDoor")
            .field("workers", &s.workers)
            .field("queue_depth", &s.queue_depth)
            .finish()
    }
}

impl<D: Door> FrontDoor<D> {
    /// Spawns a pool of `workers` threads over `door` with a default
    /// queue bound of 128 jobs per worker.
    pub fn new(door: D, workers: usize) -> Self {
        let workers = workers.max(1);
        FrontDoor::with_capacity(door, workers, workers * 128)
    }

    /// Spawns a pool with an explicit queue bound: at most `capacity`
    /// jobs wait at once; further [`FrontDoor::submit`]s block (and
    /// [`FrontDoor::try_submit`]s refuse) until space frees up.
    pub fn with_capacity(door: D, workers: usize, capacity: usize) -> Self {
        FrontDoor::build(door, workers, capacity, None)
    }

    /// Spawns a telemetry-backed pool: each submission mints a trace id,
    /// queue wait is measured from enqueue to worker pickup, and workers
    /// install the trace context around the backend call so deeper layers
    /// record their stages into `telemetry`'s histograms.
    pub fn with_telemetry(
        door: D,
        workers: usize,
        capacity: usize,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        FrontDoor::build(door, workers, capacity, Some(telemetry))
    }

    fn build(door: D, workers: usize, capacity: usize, telemetry: Option<Arc<Telemetry>>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(DoorShared {
            queue: Mutex::new(DoorQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_peak: AtomicUsize::new(0),
            telemetry,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let door = door.clone();
                std::thread::Builder::new()
                    .name(format!("palaemon-door-{i}"))
                    .spawn(move || worker_loop(shared, door))
                    .expect("spawn front-door worker")
            })
            .collect();
        FrontDoor {
            shared,
            workers: handles,
        }
    }

    /// Mints the trace pair for a request entering the queue now, when a
    /// telemetry plane is attached and tracing is on.
    fn mint_trace(&self) -> Option<(u64, Instant)> {
        self.shared
            .telemetry
            .as_ref()
            .and_then(|t| t.mint_trace())
            .map(|id| (id, Instant::now()))
    }

    /// The queue guard once there is room for one more job (or the pool is
    /// shutting down) — backpressure for the blocking submit forms.
    fn wait_for_space(&self) -> MutexGuard<'_, DoorQueue<D::Error>> {
        let mut q = self.shared.queue.lock().unwrap();
        while q.jobs.len() >= self.shared.capacity && !q.shutdown {
            q = self.shared.space.wait(q).unwrap();
        }
        q
    }

    /// Pushes the request under `q` — the guard whose hold found room for
    /// it, so concurrent submitters cannot all pass the bound check and
    /// then overshoot it.
    fn enqueue(
        &self,
        mut q: MutexGuard<'_, DoorQueue<D::Error>>,
        request: TmsRequest,
        sink: Sink<D::Error>,
    ) {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        q.jobs.push_back(Job {
            request,
            sink,
            trace: self.mint_trace(),
        });
        self.shared
            .queue_peak
            .fetch_max(q.jobs.len(), Ordering::Relaxed);
        drop(q);
        self.shared.ready.notify_one();
    }

    /// Submits a request, blocking while the queue is at capacity
    /// (backpressure), and returns the completion [`Ticket`] the caller
    /// parks on — or polls, or drops (the request still runs).
    pub fn submit(&self, request: TmsRequest) -> Ticket<D::Error> {
        let ticket = Ticket::new();
        let sink = Sink::Ticket(Arc::clone(&ticket.state));
        self.enqueue(self.wait_for_space(), request, sink);
        ticket
    }

    /// Submits without blocking: at saturation the request is handed
    /// back (`Err`) so the caller can shed load instead of piling on.
    // The large Err variant is the point: the rejected request returns
    // to the caller by value so it can be retried or shed unboxed.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(
        &self,
        request: TmsRequest,
    ) -> std::result::Result<Ticket<D::Error>, TmsRequest> {
        let q = self.shared.queue.lock().unwrap();
        if q.jobs.len() >= self.shared.capacity {
            drop(q);
            // A refusal is still a submission attempt: count it on
            // both sides so submitted == completed + rejected.
            self.shared.submitted.fetch_add(1, Ordering::Relaxed);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(request);
        }
        let ticket = Ticket::new();
        let sink = Sink::Ticket(Arc::clone(&ticket.state));
        self.enqueue(q, request, sink);
        Ok(ticket)
    }

    /// Submits with a completion callback instead of a ticket — the
    /// event-loop form. The callback runs on a worker thread; keep it
    /// short. Blocks at capacity like [`FrontDoor::submit`].
    pub fn submit_with(
        &self,
        request: TmsRequest,
        callback: impl FnOnce(std::result::Result<TmsResponse, D::Error>) + Send + 'static,
    ) {
        let sink = Sink::Callback(Box::new(callback));
        self.enqueue(self.wait_for_space(), request, sink);
    }

    /// Current counters.
    pub fn stats(&self) -> FrontDoorStats {
        FrontDoorStats {
            workers: self.workers.len(),
            capacity: self.shared.capacity,
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.lock().unwrap().jobs.len(),
            queue_peak: self.shared.queue_peak.load(Ordering::Relaxed),
        }
    }

    /// Shuts the pool down — drains every accepted request, joins the
    /// workers — and returns the final counters. The post-mortem form of
    /// [`FrontDoor::stats`]: by the time it returns, `queue_depth` is 0
    /// and `submitted == completed + rejected`.
    pub fn drain(self) -> FrontDoorStats {
        let shared = Arc::clone(&self.shared);
        let workers = self.workers.len();
        drop(self); // Drop drains the queue and joins the pool.
        let queue_depth = shared.queue.lock().unwrap().jobs.len();
        FrontDoorStats {
            workers,
            capacity: shared.capacity,
            submitted: shared.submitted.load(Ordering::Relaxed),
            completed: shared.completed.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            queue_depth,
            queue_peak: shared.queue_peak.load(Ordering::Relaxed),
        }
    }
}

impl<D: Door> Drop for FrontDoor<D> {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.ready.notify_all();
        self.shared.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop<D: Door>(shared: Arc<DoorShared<D::Error>>, door: D) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return; // queue drained, pool shutting down
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        shared.space.notify_one();
        // With a trace attached: book the queue wait, install the context
        // so deeper layers (engine apply, counter commit, replication)
        // record their stages, and fold the finished trace into the plane.
        let tracing = match (&shared.telemetry, job.trace) {
            (Some(telemetry), Some((id, enqueued))) => {
                let mut ctx = TraceCtx::new(id);
                ctx.add(Stage::QueueWait, enqueued.elapsed().as_nanos() as u64);
                trace::install(ctx);
                Some(Arc::clone(telemetry))
            }
            _ => None,
        };
        let result = door.call(job.request);
        if let Some(telemetry) = tracing {
            if let Some(ctx) = trace::take() {
                telemetry.finish_trace(ctx);
            }
        }
        // Count before resolving the sink: a client whose ticket just
        // resolved must see its own request in `completed`.
        shared.completed.fetch_add(1, Ordering::Relaxed);
        match job.sink {
            Sink::Ticket(state) => {
                *state.slot.lock().unwrap() = Some(result);
                state.done.notify_all();
            }
            Sink::Callback(callback) => callback(result),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use super::*;
    use crate::error::PalaemonError;
    use crate::policy::Policy;
    use crate::server::FaultHook;
    use crate::tms::{Palaemon, SessionId};
    use palaemon_crypto::aead::AeadKey;
    use palaemon_crypto::sig::SigningKey;
    use palaemon_crypto::Digest;
    use palaemon_db::Db;
    use shielded_fs::fs::TagEvent;
    use shielded_fs::store::MemStore;
    use tee_sim::platform::{Microcode, Platform};
    use tee_sim::quote::{create_report, quote_report};

    const MRE: [u8; 32] = [0x6d; 32];

    /// One engine with one policy (`name`, service `app`, volume `data`)
    /// — the fixture every front-door test drives through the pool.
    fn fixture(name: &str) -> (TmsServer, Platform) {
        let platform = Platform::new("door-host", Microcode::PostForeshadow);
        let db =
            Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([9; 32])).expect("create db");
        let engine = Arc::new(Palaemon::new(
            db,
            SigningKey::from_seed(b"door"),
            Digest::ZERO,
            17,
        ));
        engine.register_platform(platform.id(), platform.qe_verifying_key());
        let server = TmsServer::new(engine);
        let owner = SigningKey::from_seed(b"door-owner").verifying_key();
        let policy = Policy::parse(&format!(
            "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
             volumes: [\"data\"]\nvolumes:\n  - name: data\n",
            Digest::from_bytes(MRE).to_hex()
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
        (server, platform)
    }

    fn attest_request(platform: &Platform, policy: &str) -> TmsRequest {
        let binding = [0u8; 64];
        let report = create_report(platform, Digest::from_bytes(MRE), binding);
        TmsRequest::AttestService {
            quote: Box::new(quote_report(platform, &report).unwrap()),
            tls_key_binding: binding,
            policy_name: policy.into(),
            service_name: "app".into(),
        }
    }

    #[test]
    fn thousands_of_sessions_multiplex_over_a_small_pool() {
        let (server, platform) = fixture("mux");
        let engine = Arc::clone(server.engine());
        let door = FrontDoor::with_capacity(server, 4, 64);

        // 1000 clients attest concurrently through a 4-thread pool: no
        // thread per client anywhere, just tickets. Quotes are minted up
        // front so the submit loop outruns the verifying workers.
        const SESSIONS: usize = 1000;
        let requests: Vec<TmsRequest> = (0..SESSIONS)
            .map(|_| attest_request(&platform, "mux"))
            .collect();
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| door.submit(r)).collect();
        let mut sessions = Vec::new();
        for ticket in tickets {
            match ticket.wait().expect("attest") {
                TmsResponse::Config(config) => sessions.push(config.session),
                other => panic!("unexpected response {other:?}"),
            }
        }
        // Every session is live and distinct.
        let mut ids: Vec<u64> = sessions.iter().map(|s| s.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), SESSIONS, "sessions must be distinct");
        assert_eq!(engine.session_count(), SESSIONS);

        // Each parked session speaks once more (a tag push), again over
        // the same 4 workers.
        let pushes: Vec<Ticket> = sessions
            .iter()
            .map(|&s| {
                door.submit(TmsRequest::PushTag {
                    session: s,
                    volume: "data".into(),
                    tag: Digest::from_bytes([7; 32]),
                    event: TagEvent::FileClose,
                })
            })
            .collect();
        for ticket in pushes {
            ticket.wait().expect("push tag");
        }

        let stats = door.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.submitted, 2 * SESSIONS as u64);
        assert_eq!(stats.completed, stats.submitted);
        assert_eq!(stats.queue_depth, 0);
        assert!(
            stats.queue_peak > stats.workers,
            "submitters must run ahead of the pool (peak {} vs {} workers)",
            stats.queue_peak,
            stats.workers
        );
    }

    #[test]
    fn callbacks_fire_and_drop_drains_accepted_work() {
        let (server, platform) = fixture("cb");
        let engine = Arc::clone(server.engine());
        let door = FrontDoor::with_capacity(server, 2, 32);

        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            door.submit_with(attest_request(&platform, "cb"), move |result| {
                result.expect("attest");
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Dropping the door drains everything already accepted.
        drop(door);
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        assert_eq!(engine.session_count(), 16);
    }

    #[test]
    fn saturation_applies_backpressure_instead_of_unbounded_growth() {
        let (server, _platform) = fixture("sat");
        // A server whose every request stalls 20ms: one worker, capacity
        // 2 — a further concurrent submission must be refused.
        let gate: FaultHook = Arc::new(|_req| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        });
        let door = FrontDoor::with_capacity(server.with_fault_hook(gate), 1, 2);

        // Fill the worker + the queue with slow probes (`submit` blocks
        // once the queue is full, so these all land eventually).
        let parked: Vec<Ticket> = (0..3)
            .map(|_| door.submit(TmsRequest::PolicyCount))
            .collect();
        // Saturated now (1 in flight + 2 queued): try_submit refuses and
        // hands the request back.
        let refused = door.try_submit(TmsRequest::PolicyCount);
        assert!(refused.is_err(), "saturated door must shed load");
        let stats = door.stats();
        assert!(stats.rejected >= 1);
        // A refusal counts as a submission attempt (conservation).
        assert!(stats.submitted >= 3 + stats.rejected);
        for ticket in parked {
            ticket.wait().expect("probe");
        }
        // Space freed: accepted again.
        door.try_submit(TmsRequest::PolicyCount)
            .expect("space freed")
            .wait()
            .expect("probe");
    }

    #[test]
    fn concurrent_submitters_never_overshoot_the_queue_bound() {
        let (server, _platform) = fixture("bound");
        // One worker that lets a request through the backend per permit, so
        // the test decides when a queue slot frees up.
        let permits = Arc::new((Mutex::new(0u64), Condvar::new()));
        let hook: FaultHook = {
            let permits = Arc::clone(&permits);
            Arc::new(move |_req| {
                let (left, cv) = &*permits;
                *cv.wait_while(left.lock().unwrap(), |left| *left == 0)
                    .unwrap() -= 1;
                Ok(())
            })
        };
        let grant = |n: u64| {
            *permits.0.lock().unwrap() += n;
            permits.1.notify_all();
        };
        const CAPACITY: usize = 4;
        const RACERS: usize = 8;
        let door = FrontDoor::with_capacity(server.with_fault_hook(hook), 1, CAPACITY);

        // Nothing drains: eight racers fill the queue from empty, so at most
        // `CAPACITY` queue up behind the one request the worker holds.
        let start = std::sync::Barrier::new(RACERS);
        let mut accepted: Vec<Ticket> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..50)
                            .filter_map(|_| door.try_submit(TmsRequest::PolicyCount).ok())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            racers.into_iter().flat_map(|r| r.join().unwrap()).collect()
        });
        let (filled, full) = (accepted.len(), door.stats());

        // Then one slot at a time: each permit frees a single slot, and all
        // eight racers, submitting flat out, compete for it.
        let done = std::sync::atomic::AtomicBool::new(false);
        accepted.extend(std::thread::scope(|scope| {
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while !done.load(Ordering::SeqCst) {
                            mine.extend(door.try_submit(TmsRequest::PolicyCount).ok());
                        }
                        mine
                    })
                })
                .collect();
            for _ in 0..300 {
                let completed = door.stats().completed;
                grant(1);
                while door.stats().completed == completed {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::SeqCst);
            racers
                .into_iter()
                .flat_map(|r| r.join().unwrap())
                .collect::<Vec<_>>()
        }));

        // Open the backend and drain before judging anything: a failed
        // assertion must not leave the worker parked on a permit.
        grant(accepted.len() as u64);
        for ticket in accepted {
            ticket.wait().expect("probe");
        }
        let drained = door.drain();
        assert!(
            filled <= CAPACITY + 1,
            "{filled} accepted past a full queue and one busy worker"
        );
        assert_eq!(full.submitted, 50 * RACERS as u64);
        assert_eq!(full.rejected, full.submitted - filled as u64);
        assert!(
            drained.queue_peak <= CAPACITY,
            "bounded queue overshot: peak {} > {CAPACITY}",
            drained.queue_peak
        );
        assert_eq!(drained.submitted, drained.completed + drained.rejected);
    }

    #[test]
    fn tickets_poll_without_blocking_and_errors_pass_through() {
        let (server, _platform) = fixture("poll");
        let door = FrontDoor::with_capacity(server, 2, 16);
        let ticket = door.submit(TmsRequest::PushTag {
            session: SessionId(9999),
            volume: "data".into(),
            tag: Digest::ZERO,
            event: TagEvent::Sync,
        });
        let result = ticket.wait();
        assert!(
            matches!(result, Err(PalaemonError::NoSuchSession)),
            "engine errors must reach the ticket: {result:?}"
        );

        let ticket = door.submit(TmsRequest::PolicyCount);
        // Polling loop: is_done/try_take instead of parking.
        let mut polled = None;
        for _ in 0..500 {
            if let Some(result) = ticket.try_take() {
                polled = Some(result);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            matches!(polled, Some(Ok(TmsResponse::Count(1)))),
            "poll must observe the completed count: {polled:?}"
        );
    }

    #[test]
    fn telemetry_door_mints_traces_and_records_stage_latencies() {
        let (server, platform) = fixture("tele");
        let telemetry = Telemetry::new();
        let door = FrontDoor::with_telemetry(server, 2, 32, Arc::clone(&telemetry));
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| door.submit(attest_request(&platform, "tele")))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("attest");
        }
        assert_eq!(telemetry.traces_minted(), 8);
        assert_eq!(telemetry.stage_histogram(Stage::QueueWait).count(), 8);
        assert_eq!(telemetry.stage_histogram(Stage::EngineApply).count(), 8);

        // Disabling tracing stops minting; requests still complete.
        telemetry.set_tracing(false);
        door.submit(TmsRequest::PolicyCount).wait().expect("probe");
        assert_eq!(telemetry.traces_minted(), 8);

        let stats = door.drain();
        assert_eq!(stats.submitted, stats.completed + stats.rejected);
        assert_eq!(stats.queue_depth, 0);
    }
}
