//! Wrappers round the trait seams the program already exposes —
//! [`BlockStore`], [`MonotonicCounter`], [`Door`] — so every layer is
//! measured from outside. Counts are atomics and always on; spans are
//! recorded only while a traced run switches them on.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use palaemon_core::counterfile::MonotonicCounter;
use palaemon_core::frontdoor::Door;
use palaemon_core::server::{TmsRequest, TmsResponse};
use shielded_fs::store::{BlockStore, BufferedStore, MemStore};

/// Nanoseconds since the process's first call: one clock for every span
/// and sample, comparable across threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A device-side span: one `sync` or one counter increment on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSpan {
    pub name: &'static str,
    pub replica: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where device-side spans go while tracing is on. Kept in memory; the
/// traced run writes them out when it ends.
#[derive(Default)]
pub struct SpanSink {
    enabled: AtomicBool,
    spans: Mutex<Vec<DeviceSpan>>,
}

impl SpanSink {
    pub fn new() -> Arc<SpanSink> {
        Arc::new(SpanSink::default())
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    fn record(&self, span: DeviceSpan) {
        if self.enabled() {
            self.spans.lock().expect("span sink lock").push(span);
        }
    }

    pub fn take(&self) -> Vec<DeviceSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span sink lock"))
    }
}

/// A device whose `sync()` takes wall time, with the durability contract
/// of a real one: writes since the last `sync` live in a journal a crash
/// discards. The delay is off until the benchmark's handle arms it; a run
/// arms it before set-up's first request, so set-up is paced by the device
/// like the window after it.
pub struct ModelledDevice {
    journal: BufferedStore<MemStore>,
    armed: Arc<AtomicBool>,
    sync_delay: Duration,
}

/// The benchmark's handle on a [`ModelledDevice`] it has handed to a `Db`.
#[derive(Clone)]
pub struct DeviceHandle {
    durable: MemStore,
    armed: Arc<AtomicBool>,
}

impl ModelledDevice {
    pub fn new(sync_delay: Duration) -> (ModelledDevice, DeviceHandle) {
        let durable = MemStore::new();
        let armed = Arc::new(AtomicBool::new(false));
        let device = ModelledDevice {
            journal: BufferedStore::new(durable.clone()),
            armed: Arc::clone(&armed),
            sync_delay,
        };
        (device, DeviceHandle { durable, armed })
    }
}

impl DeviceHandle {
    /// Switches the modelled `sync` delay on or off.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Release);
    }

    /// The store behind the journal: everything a completed `sync` wrote.
    pub fn durable(&self) -> MemStore {
        self.durable.clone()
    }

    /// What a power cut right now would leave: only what a completed
    /// `sync` made durable, as an independent store.
    pub fn crash_image(&self) -> MemStore {
        let image = MemStore::new();
        image.restore(self.durable.snapshot());
        image
    }
}

impl BlockStore for ModelledDevice {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.journal.get(name)
    }
    fn put(&self, name: &str, data: Vec<u8>) {
        self.journal.put(name, data);
    }
    fn delete(&self, name: &str) {
        self.journal.delete(name);
    }
    fn list(&self) -> Vec<String> {
        self.journal.list()
    }
    fn sync(&self) -> shielded_fs::Result<()> {
        if self.armed.load(Ordering::Acquire) {
            std::thread::sleep(self.sync_delay);
        }
        self.journal.sync()
    }
}

/// What a [`ProbeStore`] has seen.
#[derive(Debug, Default)]
pub struct StoreCounts {
    pub puts: AtomicU64,
    pub put_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
}

/// A point-in-time copy of [`StoreCounts`]; subtract two for a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    pub puts: u64,
    pub put_bytes: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl StoreCounts {
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }
}

impl StoreSnapshot {
    pub fn since(self, earlier: StoreSnapshot) -> StoreSnapshot {
        StoreSnapshot {
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

/// Counts and times what the layer above does to its store.
pub struct ProbeStore {
    inner: Box<dyn BlockStore>,
    counts: Arc<StoreCounts>,
    span: Option<(Arc<SpanSink>, &'static str, u32)>,
}

impl ProbeStore {
    pub fn new(inner: Box<dyn BlockStore>) -> (ProbeStore, Arc<StoreCounts>) {
        let counts = Arc::new(StoreCounts::default());
        let store = ProbeStore {
            inner,
            counts: Arc::clone(&counts),
            span: None,
        };
        (store, counts)
    }

    /// Records every `sync` as a span `name{replica}` while `sink` is on.
    pub fn with_spans(mut self, sink: Arc<SpanSink>, name: &'static str, replica: u32) -> Self {
        self.span = Some((sink, name, replica));
        self
    }
}

impl BlockStore for ProbeStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.get(name)
    }
    fn put(&self, name: &str, data: Vec<u8>) {
        self.counts.puts.fetch_add(1, Ordering::Relaxed);
        self.counts
            .put_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.put(name, data);
    }
    fn delete(&self, name: &str) {
        self.inner.delete(name);
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn sync(&self) -> shielded_fs::Result<()> {
        let start_ns = now_ns();
        let result = self.inner.sync();
        let end_ns = now_ns();
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.counts
            .sync_ns
            .fetch_add(end_ns - start_ns, Ordering::Relaxed);
        if let Some((sink, name, replica)) = &self.span {
            sink.record(DeviceSpan {
                name,
                replica: *replica,
                start_ns,
                end_ns,
            });
        }
        result
    }
}

/// What a [`ProbeCounter`] has seen: how many increments, and how long
/// each took.
#[derive(Debug, Default)]
pub struct CounterCounts {
    pub increments: AtomicU64,
    durations_ns: Mutex<Vec<u64>>,
}

impl CounterCounts {
    /// Drains the per-increment durations recorded so far.
    pub fn take_durations_ns(&self) -> Vec<u64> {
        std::mem::take(&mut *self.durations_ns.lock().expect("counter probe lock"))
    }
}

/// Counts and times the physical increments a `BatchedCounter` issues.
pub struct ProbeCounter<C> {
    inner: C,
    counts: Arc<CounterCounts>,
    span: Option<(Arc<SpanSink>, u32)>,
}

impl<C: MonotonicCounter> ProbeCounter<C> {
    pub fn new(inner: C) -> (ProbeCounter<C>, Arc<CounterCounts>) {
        let counts = Arc::new(CounterCounts::default());
        let counter = ProbeCounter {
            inner,
            counts: Arc::clone(&counts),
            span: None,
        };
        (counter, counts)
    }

    /// Records every increment as a span `counterfile.increment{replica}`
    /// while `sink` is on.
    pub fn with_spans(mut self, sink: Arc<SpanSink>, replica: u32) -> Self {
        self.span = Some((sink, replica));
        self
    }
}

impl<C: MonotonicCounter> MonotonicCounter for ProbeCounter<C> {
    fn increment(&mut self) -> palaemon_core::Result<u64> {
        let start_ns = now_ns();
        let result = self.inner.increment();
        let end_ns = now_ns();
        self.counts.increments.fetch_add(1, Ordering::Relaxed);
        self.counts
            .durations_ns
            .lock()
            .expect("counter probe lock")
            .push(end_ns - start_ns);
        if let Some((sink, replica)) = &self.span {
            sink.record(DeviceSpan {
                name: "counterfile.increment",
                replica: *replica,
                start_ns,
                end_ns,
            });
        }
        result
    }
}

thread_local! {
    /// Start and end of the last `ProbeDoor::call` on this thread.
    static LAST_CALL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Times everything below the front door. A `FrontDoor` worker runs the
/// backend call and then the completion callback on the same thread, so a
/// callback reads its own request's span with [`last_call`].
#[derive(Clone)]
pub struct ProbeDoor<D> {
    inner: D,
    calls: Arc<AtomicU64>,
}

impl<D: Door> ProbeDoor<D> {
    pub fn new(inner: D) -> ProbeDoor<D> {
        ProbeDoor {
            inner,
            calls: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Backend calls made through the door.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<D: Door> Door for ProbeDoor<D> {
    type Error = D::Error;

    fn call(&self, request: TmsRequest) -> Result<TmsResponse, D::Error> {
        let start_ns = now_ns();
        let result = self.inner.call(request);
        LAST_CALL.with(|c| c.set((start_ns, now_ns())));
        self.calls.fetch_add(1, Ordering::Relaxed);
        result
    }
}

/// `(start_ns, end_ns)` of the backend call that just returned on this
/// thread — valid inside a completion callback.
pub fn last_call() -> (u64, u64) {
    LAST_CALL.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use palaemon_crypto::aead::AeadKey;
    use palaemon_db::Db;

    #[test]
    fn outside_sync_count_agrees_with_the_programs_own() {
        let (store, counts) = ProbeStore::new(Box::new(MemStore::new()));
        let mut db = Db::create(Box::new(store), AeadKey::from_bytes([3; 32])).expect("create");
        // `create` syncs once before any window exists.
        let at_create = counts.snapshot().syncs;
        assert_eq!(at_create, 1);
        for i in 0..37u32 {
            db.put(
                format!("k{i}").into_bytes(),
                vec![i as u8; 100 + i as usize],
            );
            if i % 3 != 1 {
                db.commit().expect("commit");
            }
        }
        db.commit().expect("commit");
        let windows = db.stats().wal_windows;
        assert!(windows > 0);
        assert_eq!(counts.snapshot().syncs - at_create, windows);
        // Each window writes its sealed batch and the meta blob.
        assert_eq!(counts.snapshot().puts, 2 + 2 * windows);
    }

    #[test]
    fn modelled_device_loses_exactly_the_unsynced_writes() {
        let (device, handle) = ModelledDevice::new(Duration::from_millis(1));
        device.put("a", vec![1]);
        device.sync().expect("sync");
        device.put("b", vec![2]);
        assert_eq!(device.get("b"), Some(vec![2]), "read-your-writes");
        let image = handle.crash_image();
        assert_eq!(image.get("a"), Some(vec![1]));
        assert_eq!(image.get("b"), None, "unsynced write is gone");
        // The image is independent of the live device.
        device.sync().expect("sync");
        assert_eq!(image.get("b"), None);
        assert_eq!(handle.crash_image().get("b"), Some(vec![2]));
    }

    #[test]
    fn modelled_device_sleeps_only_when_armed() {
        let (device, handle) = ModelledDevice::new(Duration::from_millis(5));
        let t = Instant::now();
        device.sync().expect("sync");
        assert!(t.elapsed() < Duration::from_millis(5), "disarmed: no delay");
        handle.arm(true);
        let t = Instant::now();
        device.sync().expect("sync");
        assert!(t.elapsed() >= Duration::from_millis(5), "armed: delayed");
    }

    #[test]
    fn spans_are_recorded_only_while_enabled() {
        let sink = SpanSink::new();
        let (store, _counts) = ProbeStore::new(Box::new(MemStore::new()));
        let store = store.with_spans(Arc::clone(&sink), "kvdb.sync", 2);
        store.sync().expect("sync");
        assert!(sink.take().is_empty());
        sink.set_enabled(true);
        store.sync().expect("sync");
        let spans = sink.take();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].replica), ("kvdb.sync", 2));
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
