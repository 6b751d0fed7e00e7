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
//! while a small worker pool — sized to the engine's actual parallelism,
//! not the client count — drains the queue through the server. One process
//! multiplexes thousands of sessions over a few threads; the queue bound
//! applies backpressure instead of letting a flood of requests pile up
//! unboundedly ([`FrontDoor::try_submit`] refuses instead of blocking, for
//! callers that shed load).
//!
//! ## Snapshot reads are answered where they arrive
//! A request for which [`TmsRequest::is_snapshot_read`] holds — `ReadTag`,
//! and `ReadPolicy` without an approval round — never enters the queue. It
//! is answered on the submitting thread, inside [`FrontDoor::submit`],
//! [`FrontDoor::try_submit`] or [`FrontDoor::submit_with`]: the same
//! [`Door::call`], then the same ticket or callback, counted and traced as a
//! pool job is (its queue wait is ≈ 0), and a panic in it costs that request
//! alone, as on a pool thread. The backend answers it from one snapshot in
//! about a microsecond; handing it to a pool thread costs ten times that,
//! and queueing it behind busy seats a hundred.
//!
//! * **Everything else queues.** `workers`, the queue bound and
//!   backpressure (the next section) apply to every other request. A
//!   snapshot read takes no seat and no queue slot, and `try_submit` never
//!   refuses one.
//! * **Attestations and closes stay on the pool,** although they are short
//!   too: a replicated backend mirrors the new or closed session to its
//!   followers under the group's forward lock, which a heal holds for tens
//!   of milliseconds. On the submitter's thread that stall would stop an
//!   event loop that submits from its own thread; on the pool it holds one
//!   seat.
//! * **No order is promised between requests in flight at once,** and none
//!   ever was: two queued requests already ran on two threads. A read
//!   submitted while a write is in flight may or may not see it; a client
//!   that must read its own write waits for the write's ticket first.
//!
//! ## What `workers` means
//! `workers` is the number of requests the pool **runs** at once, not its
//! thread count. The rule, in one line: *a pool thread takes a job only
//! while fewer than `workers` threads are inside [`Door::call`] and not in a
//! declared wait*. Snapshot reads (above) are not jobs: they take no seat.
//!
//! * **A declared wait.** A thread about to sleep on something slow — a
//!   device sync, a follower's receipt — wraps the sleep in
//!   [`parked`]`(expected, || wait)`. The serving path has exactly two:
//!   the commit ticket in `Staged::redeem` and the receipt tally in
//!   `palaemon-cluster`'s `replicate`. `expected` is measured by the layer
//!   that sleeps (the store's last sync, the group's last quorum wait); the
//!   door configures nothing. On a thread that is not a pool worker — a
//!   plain [`TmsServer::handle`] caller, a replication follower's sender —
//!   `parked` just runs the wait.
//! * **The seat goes back.** Entering a declared wait frees the thread's
//!   seat: a queued job is handed to a free thread, or, when none is free,
//!   to a newly spawned one (the same loop; there is no second kind of
//!   thread). A request that mutates and one that reads therefore stop
//!   competing for the same few threads: a commit window fills with the
//!   requests in flight, and a read finds a seat while every mutation
//!   sleeps.
//! * **Coming back.** A thread returning from its wait finishes its own
//!   request — call, then ticket or callback, on the one thread
//!   ([`FrontDoor::submit_with`]'s contract) — without waiting for a seat,
//!   so for that stretch more than `workers` requests may run. It competes
//!   for its *next* job under the rule above.
//! * **When nothing is handed over.** A wait expected to be shorter than
//!   [`SEAT_HANDOFF`] keeps its seat: waking another thread would cost more
//!   than the sleep. A backend whose store syncs in microseconds therefore
//!   runs on exactly `workers` threads, always. Declared waits nest; only
//!   the outermost frees a seat.
//! * **The bound.** The pool never holds more than [`THREADS_PER_WORKER`]`
//!   × workers` threads. At the bound a wait still frees its seat, there is
//!   just no thread left to take it — the behaviour of a fixed pool.
//!   Threads are spawned on demand, never retired, and joined by
//!   [`FrontDoor::drain`] / `Drop` with the rest; a failed spawn of an
//!   extra thread is not an error, the job simply waits for a thread.
//!
//! This is the synchronous half of a park-free serving path: a request in
//! flight still holds a *thread* across its device and wire round trips, it
//! just no longer holds a *seat*. Holding no thread at all needs
//! acknowledgements delivered as continuations, which a synchronous
//! [`Door::call`] cannot express; `Door::call` and [`TmsServer::handle`]
//! stay the synchronous path this serves.
//!
//! ## Locks and panics
//! The queue mutex guards the jobs, the counts (`running`, `waiting`) and
//! the thread handles. It is a **leaf**: nothing else is acquired under it
//! (a thread spawn is the one system call made there). Submitters take it
//! holding whatever they hold; the two declared waits take it on the way
//! into and out of their sleep, holding no engine lock and, in the cluster,
//! only the router's topology *read* lock that spans every dispatch — never
//! a group's `forward_lock`. A poisoned lock is recovered, see [`lock`].
//!
//! A [`Door::call`] or callback that panics is caught on the worker: the
//! thread gives its seat back and serves the next job, and [`parked`]
//! restores the count through a scope guard, so neither a seat nor a thread
//! is lost. A snapshot read's panic is caught on the submitting thread, and
//! the submit returns as usual. The panicked request itself is *not*
//! resolved — its ticket is never completed, its callback never run, it is
//! not counted in `completed` — because the door has no `D::Error` to
//! resolve it with.
//!
//! ## Backends and tracing
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

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use palaemon_telemetry::{trace, Collect, MetricSink, Stage, Telemetry, TraceCtx};

use crate::error::PalaemonError;
use crate::server::{TmsRequest, TmsResponse, TmsServer};

/// A declared wait gives its seat back only when it is expected to last at
/// least this long: what handing a seat to another thread costs, with room.
///
/// Derivation: a hand-over is two more holds of the queue mutex and one
/// condvar wake of an idle thread, which then has to be scheduled — the
/// same work as one idle-door round trip, which `perf_bench` measures as
/// `frontdoor.roundtrip_us` = 8.7 µs. The waits on the other side are a
/// `MemStore` sync (single-digit µs: hand-over would cost more than it
/// frees) and a device sync or a follower's receipt (≈ 1 ms on the modelled
/// device: two orders of magnitude more). 100 µs sits a decade from each.
/// Swept on `perf_bench` (see `perf/PR-21.md`): 25, 50, 100, 200 and 400 µs
/// read the same on the device workloads (every wait is compensated) and on
/// `push_r1_cpu` (none is, no thread beyond `workers` is ever spawned).
const SEAT_HANDOFF: Duration = Duration::from_micros(100);

/// The pool grows to at most this many threads per worker seat. Each
/// request asleep in a declared wait holds one thread, so this bounds the
/// requests that can sleep at once at `(THREADS_PER_WORKER − 1) × workers`
/// beside a full set of running ones; past it the pool behaves as a fixed
/// pool does. Four is twice what a queue kept two-deep per worker needs
/// (`perf_bench`: 16 in flight over 8 workers) and keeps the worst case at
/// a few dozen mostly-sleeping threads.
const THREADS_PER_WORKER: usize = 4;

/// Locks `mutex`. Lock-poison policy of this module, stated once for this
/// and [`wait`]: a poisoned lock is **recovered**, not propagated. Every
/// critical section leaves its state valid at each step — queue sections
/// are a push or a pop and plain counter updates, ticket sections a single
/// `Option` store or take — and the only foreign code a pool thread runs
/// (the backend call, a callback) runs under no lock of this module.
/// Propagating would turn one panic into a panic in every later submitter.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sleeps on `condvar`; poison is recovered, see [`lock`].
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A synchronous request backend a [`FrontDoor`] pool can drain into:
/// one engine ([`TmsServer`]) or a sharded cluster router.
///
/// A backend answers a snapshot read ([`TmsRequest::is_snapshot_read`])
/// without sleeping: the door runs those on the submitting thread, which
/// may be a client's event loop. [`TmsServer`] reads one database snapshot;
/// `palaemon-cluster`'s `ClusterDoor` adds a freshness-checked replica pick.
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
    /// Threads inside a request — backend call, then ticket or callback —
    /// and not in a declared wait. Jobs are taken only while this is below
    /// `workers`; a thread back from a wait re-enters unconditionally.
    running: usize,
    /// Threads asleep in a declared wait. A thread that is neither running
    /// nor here is *free*: asleep on `ready`, or on its way to look at the
    /// queue — just spawned, just woken, between two jobs.
    waiting: usize,
    /// Every thread the pool ever spawned; `Drop` joins them.
    threads: Vec<JoinHandle<()>>,
}

/// State shared between submitters and workers.
struct DoorShared<E> {
    queue: Mutex<DoorQueue<E>>,
    /// Signals idle threads that a job may be takeable (or shutdown).
    ready: Condvar,
    /// Signals blocked submitters that queue space freed up.
    space: Condvar,
    /// Requests run at once; see the module docs.
    workers: usize,
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
        lock(&self.state.slot).is_some()
    }

    /// The result, if already available — the ticket stays waitable
    /// otherwise.
    pub fn try_take(&self) -> Option<std::result::Result<TmsResponse, E>> {
        lock(&self.state.slot).take()
    }

    /// Parks until the request completes and returns its result.
    pub fn wait(self) -> std::result::Result<TmsResponse, E> {
        let mut slot = lock(&self.state.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = wait(&self.state.done, slot);
        }
    }
}

/// Point-in-time counters of a [`FrontDoor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontDoorStats {
    /// Requests the pool runs at once — threads inside a request and not
    /// in a declared wait (see the module docs).
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
    /// Answers snapshot reads on the submitting thread; cloned into each
    /// thread a submission has to spawn.
    door: D,
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
    /// Spawns a pool running `workers` requests at once over `door`, with
    /// a default queue bound of 128 jobs per worker.
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
                running: 0,
                waiting: 0,
                threads: Vec::with_capacity(workers),
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            workers,
            capacity: capacity.max(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_peak: AtomicUsize::new(0),
            telemetry,
        });
        let mut q = lock(&shared.queue);
        for _ in 0..workers {
            spawn_worker(&shared, &door, &mut q).expect("spawn front-door worker");
        }
        drop(q);
        FrontDoor { shared, door }
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
        let mut q = lock(&self.shared.queue);
        while q.jobs.len() >= self.shared.capacity && !q.shutdown {
            q = wait(&self.shared.space, q);
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
        offer(&self.shared, &self.door, q);
    }

    /// Takes a request in for the blocking submit forms. A snapshot read is
    /// answered on the calling thread — counted, traced and contained
    /// exactly like a job a pool thread runs (see the module docs);
    /// anything else waits for queue space and is queued.
    fn accept(&self, request: TmsRequest, sink: Sink<D::Error>) {
        if !request.is_snapshot_read() {
            self.enqueue(self.wait_for_space(), request, sink);
            return;
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            request,
            sink,
            trace: self.mint_trace(),
        };
        run_caught(&self.shared, &self.door, job);
    }

    /// Submits a request, blocking while the queue is at capacity
    /// (backpressure), and returns the completion [`Ticket`] the caller
    /// parks on — or polls, or drops (the request still runs). A snapshot
    /// read is answered before this returns.
    pub fn submit(&self, request: TmsRequest) -> Ticket<D::Error> {
        let ticket = Ticket::new();
        self.accept(request, Sink::Ticket(Arc::clone(&ticket.state)));
        ticket
    }

    /// Submits without blocking: at saturation the request is handed
    /// back (`Err`) so the caller can shed load instead of piling on. A
    /// snapshot read is never refused; it is answered before this returns.
    // The large Err variant is the point: the rejected request returns
    // to the caller by value so it can be retried or shed unboxed.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(
        &self,
        request: TmsRequest,
    ) -> std::result::Result<Ticket<D::Error>, TmsRequest> {
        if request.is_snapshot_read() {
            return Ok(self.submit(request));
        }
        let q = lock(&self.shared.queue);
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
    /// event-loop form. The callback runs on the thread that ran the
    /// backend call, right after it; keep it short. For a snapshot read
    /// that is the calling thread, before this returns. Blocks at capacity
    /// like [`FrontDoor::submit`].
    pub fn submit_with(
        &self,
        request: TmsRequest,
        callback: impl FnOnce(std::result::Result<TmsResponse, D::Error>) + Send + 'static,
    ) {
        self.accept(request, Sink::Callback(Box::new(callback)));
    }

    /// Current counters.
    pub fn stats(&self) -> FrontDoorStats {
        self.shared.stats()
    }

    /// Shuts the pool down — drains every accepted request, joins the
    /// workers — and returns the final counters. The post-mortem form of
    /// [`FrontDoor::stats`]: by the time it returns, `queue_depth` is 0
    /// and `submitted == completed + rejected`.
    pub fn drain(self) -> FrontDoorStats {
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop drains the queue and joins the pool.
        shared.stats()
    }
}

impl<E> DoorShared<E> {
    fn stats(&self) -> FrontDoorStats {
        FrontDoorStats {
            workers: self.workers,
            capacity: self.capacity,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth: lock(&self.queue).jobs.len(),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
        }
    }
}

impl<D: Door> Drop for FrontDoor<D> {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        self.shared.space.notify_all();
        // A draining request may still spawn a thread; it registers the
        // handle before the thread that spawned it can exit, so joining
        // until none is left misses nobody.
        loop {
            let threads = std::mem::take(&mut lock(&self.shared.queue).threads);
            if threads.is_empty() {
                break;
            }
            for handle in threads {
                let _ = handle.join();
            }
        }
    }
}

/// Adds one thread to the pool, under the queue guard that counts it.
fn spawn_worker<D: Door>(
    shared: &Arc<DoorShared<D::Error>>,
    door: &D,
    q: &mut DoorQueue<D::Error>,
) -> std::io::Result<()> {
    let worker = Worker {
        shared: Arc::clone(shared),
        door: door.clone(),
        asleep: Cell::new(false),
    };
    let handle = std::thread::Builder::new()
        .name(format!("palaemon-door-{}", q.threads.len()))
        .spawn(move || worker.serve())?;
    q.threads.push(handle);
    Ok(())
}

/// Gives the job at the head of the queue a thread, if a seat is free for
/// it: wakes a free thread, or spawns one below the bound. Called, guard
/// in hand, wherever a job or a seat has just become available and the
/// caller is not going to take it itself. One free thread may be counted
/// on by two jobs in a row, so every thread that takes a job offers the one
/// behind it in turn.
fn offer<D: Door>(
    shared: &Arc<DoorShared<D::Error>>,
    door: &D,
    mut q: MutexGuard<'_, DoorQueue<D::Error>>,
) {
    if q.jobs.is_empty() || q.running >= shared.workers {
        return;
    }
    if q.threads.len() > q.running + q.waiting {
        drop(q);
        shared.ready.notify_one();
    } else if q.threads.len() < shared.workers * THREADS_PER_WORKER {
        // Not fatal when it fails: the job waits for a thread to come
        // back, as it does at the bound.
        let _ = spawn_worker(shared, door, &mut q);
    }
}

/// What [`parked`] needs of the pool thread it finds itself on.
trait Seat {
    /// Frees the seat; `false` when the thread is already in a declared
    /// wait (the outer one freed it).
    fn leave(&self) -> bool;
    /// Takes the seat back, whether or not one is free.
    fn rejoin(&self);
}

thread_local! {
    /// This thread's pool seat; `None` on every thread that is not a
    /// front-door worker.
    static SEAT: RefCell<Option<Rc<dyn Seat>>> = const { RefCell::new(None) };
}

/// Declares that `wait` is about to sleep for about `expected` on something
/// slow, and runs it. On a [`FrontDoor`] pool thread, if `expected` is worth
/// a hand-over (see [`SEAT_HANDOFF`]), the thread's seat is free for
/// another request for as long as `wait` runs; everywhere else this is just
/// `wait()`. The seat is taken back when `wait` returns *or unwinds*.
pub fn parked<T>(expected: Duration, wait: impl FnOnce() -> T) -> T {
    /// Takes the seat back on every way out of the wait.
    struct Rejoin(Rc<dyn Seat>);
    impl Drop for Rejoin {
        fn drop(&mut self) {
            self.0.rejoin();
        }
    }
    if expected < SEAT_HANDOFF {
        return wait();
    }
    // `try_with`: a wait declared from a thread-local destructor finds the
    // slot gone, and is on no pool thread's serving path anyway.
    let seat = SEAT.try_with(|seat| seat.borrow().clone()).ok().flatten();
    let _back = seat.filter(|seat| seat.leave()).map(Rejoin);
    wait()
}

/// One pool thread: its share of the pool's state and its own backend
/// handle.
struct Worker<D: Door> {
    shared: Arc<DoorShared<D::Error>>,
    door: D,
    /// This thread is in a declared wait (its seat is free).
    asleep: Cell<bool>,
}

impl<D: Door> Seat for Worker<D> {
    fn leave(&self) -> bool {
        if self.asleep.replace(true) {
            return false;
        }
        let mut q = lock(&self.shared.queue);
        q.running -= 1;
        q.waiting += 1;
        offer(&self.shared, &self.door, q);
        true
    }

    fn rejoin(&self) {
        let mut q = lock(&self.shared.queue);
        q.waiting -= 1;
        q.running += 1;
        drop(q);
        self.asleep.set(false);
    }
}

impl<D: Door> Worker<D> {
    /// The thread's body: take a job when a seat is free, run it, repeat;
    /// return once the pool is shut down and the queue drained.
    fn serve(self) {
        let worker = Rc::new(self);
        SEAT.with(|seat| *seat.borrow_mut() = Some(Rc::clone(&worker) as Rc<dyn Seat>));
        let shared = &worker.shared;
        let mut seated = false;
        loop {
            let mut q = lock(&shared.queue);
            // The last request's seat, given back in the same hold that
            // looks for the next.
            q.running -= usize::from(std::mem::take(&mut seated));
            let job = loop {
                if q.running < shared.workers {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                }
                if q.shutdown && q.jobs.is_empty() {
                    drop(q);
                    // Threads that found no seat while the queue drained
                    // sleep on; the shutdown's own wake-up is long past.
                    shared.ready.notify_all();
                    return;
                }
                q = wait(&shared.ready, q);
            };
            q.running += 1;
            seated = true;
            offer(shared, &worker.door, q);
            shared.space.notify_one();
            // `seated` gives the seat back above even if this unwinds.
            run_caught(shared, &worker.door, job);
        }
    }
}

/// Runs one request — backend call, then ticket or callback — on the
/// current thread: a pool thread, or a snapshot read's submitter. A panic
/// below the door costs its own request (see the module docs) and nothing
/// else; [`parked`] has restored the seat count on its way out.
fn run_caught<D: Door>(shared: &DoorShared<D::Error>, door: &D, job: Job<D::Error>) {
    if catch_unwind(AssertUnwindSafe(|| run(shared, door, job))).is_err() {
        trace::take();
    }
}

fn run<D: Door>(shared: &DoorShared<D::Error>, door: &D, job: Job<D::Error>) {
    // With a trace attached: book the queue wait, install the context so
    // deeper layers (engine apply, counter commit, replication) record
    // their stages, and fold the finished trace into the plane.
    let tracing = match (&shared.telemetry, job.trace) {
        (Some(telemetry), Some((id, enqueued))) => {
            let mut ctx = TraceCtx::new(id);
            ctx.add(Stage::QueueWait, enqueued.elapsed().as_nanos() as u64);
            trace::install(ctx);
            Some(telemetry)
        }
        _ => None,
    };
    let result = door.call(job.request);
    if let Some(telemetry) = tracing {
        if let Some(ctx) = trace::take() {
            telemetry.finish_trace(ctx);
        }
    }
    // Count before resolving the sink: a client whose ticket just resolved
    // must see its own request in `completed`.
    shared.completed.fetch_add(1, Ordering::Relaxed);
    match job.sink {
        Sink::Ticket(state) => {
            *lock(&state.slot) = Some(result);
            state.done.notify_all();
        }
        Sink::Callback(callback) => callback(result),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;
    use std::time::Duration;

    use super::*;
    use crate::board::{ApprovalRequest, PolicyAction};
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

    // ------------------------------------------------------------------
    // `workers` counts running requests: declared waits give the seat back
    // ------------------------------------------------------------------

    /// A wait long enough to be worth a hand-over, whatever the threshold.
    const LONG: Duration = Duration::from_secs(1);

    /// A backend that is nothing but a wait: each call (a `CloseSession`
    /// whose session id is the request's marker) reports in and sleeps on a
    /// gate the test opens — declared as `expected` long, or, with `None`,
    /// not declared at all. Two markers panic instead: [`Waiting::PANIC`]
    /// before the wait, [`Waiting::PANIC_ASLEEP`] inside it. A `ReadTag`
    /// ([`Waiting::read`]) reports in and is answered at once, as a snapshot
    /// read is; with the `PANIC` marker it panics.
    #[derive(Clone)]
    struct Waiting {
        expected: Option<Duration>,
        state: Arc<WaitingState>,
    }

    #[derive(Default)]
    struct WaitingState {
        /// `(calls that have reached the gate, gate open)`.
        gate: Mutex<(usize, bool)>,
        changed: Condvar,
        /// `(marker, thread)` of every call, in the order the calls began.
        calls: Mutex<Vec<(u64, ThreadId)>>,
    }

    impl Waiting {
        const PANIC: u64 = u64::MAX;
        const PANIC_ASLEEP: u64 = u64::MAX - 1;

        fn new(expected: Option<Duration>) -> Self {
            Waiting {
                expected,
                state: Arc::default(),
            }
        }

        fn request(marker: u64) -> TmsRequest {
            TmsRequest::CloseSession {
                session: SessionId(marker),
            }
        }

        fn read(marker: u64) -> TmsRequest {
            TmsRequest::ReadTag {
                session: SessionId(marker),
                volume: "data".into(),
            }
        }

        /// Blocks until `n` calls have reached the gate (the cap only turns
        /// a hang into a failure).
        fn reached_gate(&self, n: usize) {
            let (gate, timeout) = self
                .state
                .changed
                .wait_timeout_while(lock(&self.state.gate), Duration::from_secs(30), |g| g.0 < n)
                .unwrap();
            assert!(!timeout.timed_out(), "{} of {n} calls at the gate", gate.0);
        }

        fn open(&self) {
            lock(&self.state.gate).1 = true;
            self.state.changed.notify_all();
        }

        /// Opens the gate and sees every one of `tickets` answered.
        fn open_and_finish(&self, tickets: impl IntoIterator<Item = Ticket<()>>) {
            self.open();
            for ticket in tickets {
                assert!(matches!(ticket.wait(), Ok(TmsResponse::Done)));
            }
        }

        fn calls(&self) -> Vec<(u64, ThreadId)> {
            lock(&self.state.calls).clone()
        }
    }

    impl Door for Waiting {
        type Error = ();

        fn call(&self, request: TmsRequest) -> std::result::Result<TmsResponse, ()> {
            let (marker, read) = match request {
                TmsRequest::CloseSession { session } => (session.0, false),
                TmsRequest::ReadTag { session, .. } => (session.0, true),
                _ => panic!("the waiting backend only takes markers"),
            };
            lock(&self.state.calls).push((marker, std::thread::current().id()));
            assert_ne!(marker, Self::PANIC, "asked to panic");
            if read {
                return Ok(TmsResponse::Tag(None));
            }
            let sleep = || {
                assert_ne!(marker, Self::PANIC_ASLEEP, "asked to panic asleep");
                let mut gate = lock(&self.state.gate);
                gate.0 += 1;
                self.state.changed.notify_all();
                while !gate.1 {
                    gate = wait(&self.state.changed, gate);
                }
            };
            match self.expected {
                Some(expected) => parked(expected, sleep),
                None => sleep(),
            }
            Ok(TmsResponse::Done)
        }
    }

    /// Threads the pool has spawned so far.
    fn threads<D: Door>(door: &FrontDoor<D>) -> usize {
        lock(&door.shared.queue).threads.len()
    }

    #[test]
    fn requests_asleep_in_a_declared_wait_do_not_hold_a_seat() {
        const WORKERS: usize = 2;
        let backend = Waiting::new(Some(LONG));
        let door = FrontDoor::with_capacity(backend.clone(), WORKERS, 16);
        let tickets: Vec<_> = (0..6).map(|m| door.submit(Waiting::request(m))).collect();
        // Six requests over two seats: all six are inside the backend at
        // once, each on a thread of its own, within the stated bound.
        backend.reached_gate(6);
        assert_eq!(door.stats().queue_depth, 0);
        assert_eq!(threads(&door), 6);
        assert!(threads(&door) <= WORKERS * THREADS_PER_WORKER);
        assert_eq!(
            door.stats().workers,
            WORKERS,
            "`workers` is seats, not threads"
        );
        backend.open_and_finish(tickets);
        // Drain joins the extra threads with the rest: every thread's clone
        // of the backend is gone, the queue empty, the counts conserved.
        let drained = door.drain();
        assert_eq!(Arc::strong_count(&backend.state), 1);
        assert_eq!(drained.queue_depth, 0);
        assert_eq!(drained.submitted, 6);
        assert_eq!(drained.submitted, drained.completed + drained.rejected);
    }

    #[test]
    fn the_pool_stops_growing_at_its_bound() {
        const BOUND: usize = THREADS_PER_WORKER;
        let backend = Waiting::new(Some(LONG));
        let door = FrontDoor::with_capacity(backend.clone(), 1, 16);
        let tickets: Vec<_> = (0..BOUND as u64 + 3)
            .map(|m| door.submit(Waiting::request(m)))
            .collect();
        // Past the bound a wait frees its seat to nobody: the rest queue.
        backend.reached_gate(BOUND);
        assert_eq!(threads(&door), BOUND);
        assert_eq!(door.stats().queue_depth, 3);
        backend.open_and_finish(tickets);
        assert_eq!(threads(&door), BOUND);
    }

    #[test]
    fn short_or_undeclared_waits_never_grow_the_pool() {
        const WORKERS: usize = 2;
        // A wait expected to be shorter than a hand-over costs, and a
        // backend that declares nothing: a fixed pool of `workers` threads.
        let just_short = SEAT_HANDOFF - Duration::from_nanos(1);
        for expected in [Some(just_short), Some(Duration::ZERO), None] {
            let backend = Waiting::new(expected);
            let door = FrontDoor::with_capacity(backend.clone(), WORKERS, 16);
            let tickets: Vec<_> = (0..6).map(|m| door.submit(Waiting::request(m))).collect();
            // Both seats are asleep at the gate and stay taken: four
            // requests queue, and nothing was spawned for them.
            backend.reached_gate(WORKERS);
            assert_eq!(door.stats().queue_depth, 6 - WORKERS, "{expected:?}");
            assert_eq!(threads(&door), WORKERS, "{expected:?}");
            backend.open_and_finish(tickets);
            assert_eq!(threads(&door), WORKERS, "{expected:?}");
            let drained = door.drain();
            assert_eq!(drained.submitted, drained.completed + drained.rejected);
        }
    }

    #[test]
    fn a_request_runs_call_and_callback_on_one_thread_and_pickup_is_fifo() {
        let backend = Waiting::new(Some(LONG));
        // One seat: request k + 1 is picked up only once request k has
        // begun its call and gone to sleep, so the order is not a race.
        let door = FrontDoor::with_capacity(backend.clone(), 1, 16);
        let callbacks = Arc::new(Mutex::new(Vec::new()));
        let markers = 0..THREADS_PER_WORKER as u64;
        for marker in markers.clone() {
            let callbacks = Arc::clone(&callbacks);
            door.submit_with(Waiting::request(marker), move |result| {
                assert!(matches!(result, Ok(TmsResponse::Done)));
                lock(&callbacks).push((marker, std::thread::current().id()));
            });
        }
        backend.reached_gate(markers.clone().count());
        backend.open();
        drop(door);
        let calls = backend.calls();
        let picked: Vec<u64> = calls.iter().map(|&(marker, _)| marker).collect();
        assert_eq!(picked, markers.collect::<Vec<_>>(), "pick-up is FIFO");
        let mut callbacks = lock(&callbacks).clone();
        callbacks.sort_unstable_by_key(|&(marker, _)| marker);
        assert_eq!(callbacks, calls, "each callback ran where its call did");
        let mut distinct: Vec<ThreadId> = calls.iter().map(|&(_, thread)| thread).collect();
        distinct.dedup();
        assert_eq!(distinct.len(), calls.len(), "one thread per sleeper");
    }

    #[test]
    fn parked_is_a_plain_wait_off_the_pool() {
        // One seat, held by an undeclared sleeper; a second request queued.
        let backend = Waiting::new(None);
        let door = FrontDoor::with_capacity(backend.clone(), 1, 16);
        let tickets = [0, 1].map(|m| door.submit(Waiting::request(m)));
        backend.reached_gate(1);
        // A declared wait on this thread — no pool thread — runs in place
        // and frees nothing: the queued request stays queued.
        let here = std::thread::current().id();
        assert_eq!(parked(LONG, || std::thread::current().id()), here);
        assert_eq!(door.stats().queue_depth, 1);
        assert_eq!(threads(&door), 1);
        backend.open_and_finish(tickets);
    }

    #[test]
    fn declared_waits_nest_and_only_the_outermost_frees_the_seat() {
        /// Declares a wait inside a declared wait around the backend.
        #[derive(Clone)]
        struct Nested(Waiting);
        impl Door for Nested {
            type Error = ();
            fn call(&self, request: TmsRequest) -> std::result::Result<TmsResponse, ()> {
                parked(LONG, || self.0.call(request))
            }
        }
        let backend = Waiting::new(Some(LONG));
        let door = FrontDoor::with_capacity(Nested(backend.clone()), 1, 16);
        let tickets = [0, 1, 2].map(|m| door.submit(Waiting::request(m)));
        backend.reached_gate(3);
        // Had an inner wait freed a second seat, `running` would have gone
        // below zero; had leaving it taken the seat back early, the next
        // request would not have been picked up.
        assert_eq!(lock(&door.shared.queue).running, 0);
        assert_eq!(lock(&door.shared.queue).waiting, 3);
        backend.open_and_finish(tickets);
        let drained = door.drain();
        assert_eq!(drained.submitted, drained.completed + drained.rejected);
    }

    #[test]
    fn a_panicking_call_costs_its_own_request_and_nothing_else() {
        // One seat and one thread: a leaked seat or a dead thread would
        // leave every later request queued for ever.
        const WORKERS: usize = 1;
        for (expected, marker) in [
            (None, Waiting::PANIC),
            (Some(LONG), Waiting::PANIC),
            (Some(LONG), Waiting::PANIC_ASLEEP),
        ] {
            let backend = Waiting::new(expected);
            backend.open();
            let door = FrontDoor::with_capacity(backend.clone(), WORKERS, 16);
            let lost = door.submit(Waiting::request(marker));
            let tickets: Vec<_> = (0..2 * WORKERS as u64)
                .map(|m| door.submit(Waiting::request(m)))
                .collect();
            backend.open_and_finish(tickets);
            if expected.is_none() {
                assert_eq!(
                    threads(&door),
                    WORKERS,
                    "the thread survived: none replaced it"
                );
            }
            let drained = door.drain();
            // The panicked request is not resolved and not counted: the
            // door has no error of the backend's type to resolve it with.
            assert!(!lost.is_done());
            assert_eq!(drained.completed, 2 * WORKERS as u64);
            assert_eq!(drained.submitted, drained.completed + 1);
        }
    }

    // ------------------------------------------------------------------
    // Snapshot reads are answered where they arrive
    // ------------------------------------------------------------------

    #[test]
    fn a_snapshot_read_is_answered_on_its_submitter_past_a_full_pool() {
        const WORKERS: usize = 2;
        const CAPACITY: usize = 2;
        // Undeclared waits: every seat stays taken and nothing is spawned.
        let backend = Waiting::new(None);
        let door = FrontDoor::with_capacity(backend.clone(), WORKERS, CAPACITY);
        let mut held: Vec<_> = (0..WORKERS as u64)
            .map(|m| door.submit(Waiting::request(m)))
            .collect();
        backend.reached_gate(WORKERS);
        held.extend((0..CAPACITY as u64).map(|m| door.submit(Waiting::request(10 + m))));
        assert_eq!(door.stats().queue_depth, CAPACITY);
        assert!(door.try_submit(Waiting::request(99)).is_err(), "queue full");

        // Every seat asleep, every slot taken: each form answers a read
        // before it returns, on this thread.
        let here = std::thread::current().id();
        let ticket = door.submit(Waiting::read(100));
        assert!(matches!(
            ticket.try_take(),
            Some(Ok(TmsResponse::Tag(None)))
        ));
        let answered = Arc::new(Mutex::new(None));
        let callback = {
            let answered = Arc::clone(&answered);
            move |result: std::result::Result<TmsResponse, ()>| {
                *lock(&answered) = Some((result.is_ok(), std::thread::current().id()));
            }
        };
        door.submit_with(Waiting::read(101), callback);
        assert_eq!(*lock(&answered), Some((true, here)));
        let tried = door.try_submit(Waiting::read(102));
        assert!(tried.expect("a snapshot read is never refused").is_done());
        let reads: Vec<_> = backend.calls().into_iter().filter(|c| c.0 >= 100).collect();
        assert_eq!(reads, [(100, here), (101, here), (102, here)]);
        // No slot, no seat, no thread: the pool is as the reads found it.
        let stats = door.stats();
        assert_eq!((stats.queue_depth, stats.queue_peak), (CAPACITY, CAPACITY));
        assert_eq!((stats.completed, stats.rejected), (3, 1));
        assert_eq!(threads(&door), WORKERS);

        backend.open_and_finish(held);
        let drained = door.drain();
        assert_eq!(drained.submitted, (WORKERS + CAPACITY + 1 + 3) as u64);
        assert_eq!(drained.submitted, drained.completed + drained.rejected);
    }

    #[test]
    fn only_snapshot_reads_skip_the_queue() {
        let (server, platform) = fixture("queued");
        let TmsResponse::Config(config) =
            server.handle(attest_request(&platform, "queued")).unwrap()
        else {
            panic!("attestation answers with a config");
        };
        let session = config.session;
        // The one seat sleeps in a `SessionCount` until the test opens the
        // gate: `(reached, open)`.
        let gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let hook: FaultHook = {
            let gate = Arc::clone(&gate);
            Arc::new(move |request| {
                if matches!(request, TmsRequest::SessionCount) {
                    let (state, changed) = &*gate;
                    let mut state = lock(state);
                    state.0 = true;
                    changed.notify_all();
                    while !state.1 {
                        state = wait(changed, state);
                    }
                }
                Ok(())
            })
        };
        let door = FrontDoor::with_capacity(server.with_fault_hook(hook), 1, 16);
        let holder = door.submit(TmsRequest::SessionCount);
        drop(gate.1.wait_while(lock(&gate.0), |state| !state.0).unwrap());

        let owner = SigningKey::from_seed(b"door-owner").verifying_key();
        let read_policy = |approval| TmsRequest::ReadPolicy {
            name: "queued".into(),
            client: owner,
            approval,
            votes: Vec::new(),
        };
        let round = ApprovalRequest {
            policy_name: "queued".into(),
            action: PolicyAction::Read,
            policy_digest: Digest::ZERO,
            nonce: 7,
        };
        let queued = [
            attest_request(&platform, "queued"),
            TmsRequest::CloseSession { session },
            read_policy(Some(round)),
            TmsRequest::PolicyCount,
        ]
        .map(|request| door.submit(request));
        assert_eq!(door.stats().queue_depth, queued.len());
        assert!(queued.iter().all(|ticket| !ticket.is_done()));
        // Behind them, with the seat still asleep, the two snapshot reads.
        let tag = door.submit(TmsRequest::ReadTag {
            session,
            volume: "data".into(),
        });
        assert!(matches!(tag.try_take(), Some(Ok(TmsResponse::Tag(None)))));
        let policy = door.submit(read_policy(None));
        assert!(matches!(
            policy.try_take(),
            Some(Ok(TmsResponse::Policy(_)))
        ));
        assert_eq!(door.stats().queue_peak, queued.len());

        lock(&gate.0).1 = true;
        gate.1.notify_all();
        assert!(matches!(holder.wait(), Ok(TmsResponse::Count(1))));
        for ticket in queued {
            ticket.wait().expect("queued request");
        }
        let drained = door.drain();
        assert_eq!(drained.submitted, 7);
        assert_eq!(drained.submitted, drained.completed + drained.rejected);
    }

    #[test]
    fn a_panicking_snapshot_read_costs_only_itself() {
        let backend = Waiting::new(None);
        backend.open();
        let door = FrontDoor::with_capacity(backend.clone(), 1, 16);
        // Through each form: the submit returns, the request is lost.
        let lost = door.submit(Waiting::read(Waiting::PANIC));
        let called = Arc::new(AtomicUsize::new(0));
        let callback = {
            let called = Arc::clone(&called);
            move |_: std::result::Result<TmsResponse, ()>| {
                called.fetch_add(1, Ordering::Relaxed);
            }
        };
        door.submit_with(Waiting::read(Waiting::PANIC), callback);
        let tried = door.try_submit(Waiting::read(Waiting::PANIC)).unwrap();
        // The submitter, the pool and the counts carry on.
        assert!(door.submit(Waiting::read(1)).is_done());
        backend.open_and_finish([door.submit(Waiting::request(2))]);
        let drained = door.drain();
        assert!(!lost.is_done() && !tried.is_done());
        assert_eq!(called.load(Ordering::Relaxed), 0);
        assert_eq!(drained.completed, 2);
        assert_eq!(drained.submitted, drained.completed + 3);
    }
}
