//! Builds the system under test for one workload — one replica group behind
//! a front door, every seam wrapped in a probe — and times that set-up.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use palaemon_cluster::{strict_shard, ClusterDoor, ClusterRouter, ReadPreference, ShardId};
use palaemon_core::counterfile::{BatchedCounter, ShieldedCounter};
use palaemon_core::frontdoor::{FrontDoor, FrontDoorStats};
use palaemon_core::policy::Policy;
use palaemon_core::server::{TmsRequest, TmsResponse, TmsServer};
use palaemon_core::tms::{Palaemon, SessionId};
use palaemon_crypto::aead::AeadKey;
use palaemon_crypto::sig::{SigningKey, VerifyingKey};
use palaemon_crypto::Digest;
use palaemon_db::Db;
use shielded_fs::fs::{ShieldedFs, TagEvent};
use shielded_fs::store::{BlockStore, MemStore};
use tee_sim::platform::{Microcode, Platform};
use tee_sim::quote::{create_report, quote_report, Quote};

use crate::probe::{
    CounterCounts, DeviceHandle, ModelledDevice, ProbeCounter, ProbeDoor, ProbeStore, SpanSink,
    StoreCounts,
};
use crate::stats::Rng;
use crate::workload::{partition, Kind, Shape, SlotScript, Spec};

/// The one replica group every workload runs against.
pub const SHARD: ShardId = ShardId(0);
/// Modelled `sync` latency of a `_dev` workload's device.
pub const DEVICE_SYNC: Duration = Duration::from_millis(1);
/// Modelled one-way wire latency per shipped batch of an `_r3_dev` workload.
pub const WIRE: Duration = Duration::from_millis(1);
/// Front-door pool size and queue bound.
pub const DOOR_WORKERS: usize = 8;
pub const DOOR_CAPACITY: usize = 1024;
/// Pre-signed quotes the generator cycles through.
pub const QUOTE_POOL: usize = 64;
/// Size of every policy's env payload.
pub const PAYLOAD_BYTES: usize = 1024;

const MRE: [u8; 32] = [0x5E; 32];

pub type Door = FrontDoor<ProbeDoor<ClusterDoor>>;

/// The generator thread count: two, or one on a single-core host.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The probes and handles of one replica.
pub struct ReplicaProbes {
    /// Puts, bytes and syncs the replica's `Db` issued.
    pub db: Arc<StoreCounts>,
    /// Everything durably held by the replica's DB store.
    pub blobs: MemStore,
    /// Present on `_dev` workloads: arms the delay, takes crash images.
    pub device: Option<DeviceHandle>,
    pub db_key: AeadKey,
    /// Physical increments of the replica's Fig. 6 counter.
    pub counter: Arc<CounterCounts>,
    /// Puts and syncs the counter's shielded file system issued.
    pub counter_store: Arc<StoreCounts>,
}

/// One pre-signed quote and the report data it binds.
#[derive(Clone)]
pub struct SignedQuote {
    pub quote: Quote,
    pub binding: [u8; 64],
}

/// Everything needed to build a request without touching the program:
/// shared by the generator threads.
pub struct Factory {
    pub owner: VerifyingKey,
    /// `tenant_<i>`, the policy names.
    pub names: Vec<String>,
    template: Policy,
    pub quotes: Vec<SignedQuote>,
    /// The platform the quotes come from, as an engine registers it.
    pub platform_id: String,
    pub qe_key: VerifyingKey,
}

/// The system under test plus what the generator needs to drive it.
pub struct Rig {
    pub spec: Spec,
    pub router: Arc<ClusterRouter>,
    door: Option<Door>,
    pub probe_door: ProbeDoor<ClusterDoor>,
    pub replicas: Vec<ReplicaProbes>,
    pub spans: Arc<SpanSink>,
    pub factory: Arc<Factory>,
    /// The session set-up attested for each generator slot, the policy it
    /// is under, and the slot's script (closed loops).
    pub slots: Vec<SlotSeed>,
}

pub struct SlotSeed {
    pub session: SessionId,
    pub policy: u32,
    pub script: Option<SlotScript>,
}

/// The tag a slot pushes as its `seq`-th under `policy`: the sequence
/// number is readable back out of the digest, so a read can be checked
/// against the last acknowledged push.
pub fn tag_for(policy: u32, seq: u64) -> Digest {
    let mut bytes = [0xA5u8; 32];
    bytes[..8].copy_from_slice(&seq.to_be_bytes());
    bytes[8..12].copy_from_slice(&policy.to_be_bytes());
    Digest::from_bytes(bytes)
}

/// The sequence number inside a tag made by [`tag_for`].
pub fn tag_seq(tag: &Digest) -> u64 {
    u64::from_be_bytes(tag.as_bytes()[..8].try_into().expect("8 bytes"))
}

fn payload(version: u64) -> String {
    let mut s = format!("{version:016x}");
    s.extend(std::iter::repeat_n('x', PAYLOAD_BYTES - 16));
    s
}

/// The version a policy made by [`Factory::policy`] carries in its payload.
pub fn policy_version(policy: &Policy) -> Option<u64> {
    let payload = policy.services.first()?.env.get("PAYLOAD")?;
    u64::from_str_radix(payload.get(..16)?, 16).ok()
}

fn policy_text(name: &str, version: u64) -> String {
    format!(
        "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
         volumes: [\"data\"]\n    env:\n      PAYLOAD: \"{}\"\nvolumes:\n  - name: data\n",
        Digest::from_bytes(MRE).to_hex(),
        payload(version)
    )
}

/// The 1 KiB policy text the `policy.parse_us` probe parses.
pub fn sample_policy_text() -> String {
    policy_text("tenant_0", 0)
}

fn sign_quotes(platform: &Platform, n: usize) -> Result<Vec<SignedQuote>, String> {
    (0..n)
        .map(|i| {
            let mut binding = [0u8; 64];
            binding[..8].copy_from_slice(&(i as u64).to_be_bytes());
            let report = create_report(platform, Digest::from_bytes(MRE), binding);
            let quote = quote_report(platform, &report).map_err(|e| format!("quote: {e}"))?;
            Ok(SignedQuote { quote, binding })
        })
        .collect()
}

/// What `add_replicated_shard` takes for one replica.
pub type ReplicaMember = (TmsServer, Option<Arc<BatchedCounter>>);

/// One strict replica on probed stores. `device` puts the DB store on a
/// [`ModelledDevice`], its delay off until the rig is armed.
pub fn build_replica(
    r: u32,
    device: bool,
    factory: &Factory,
    spans: &Arc<SpanSink>,
) -> Result<(ReplicaMember, ReplicaProbes), String> {
    let (inner, blobs, handle): (Box<dyn BlockStore>, MemStore, Option<DeviceHandle>) = if device {
        let (dev, handle) = ModelledDevice::new(DEVICE_SYNC);
        let blobs = handle.durable();
        (Box::new(dev), blobs, Some(handle))
    } else {
        let mem = MemStore::new();
        (Box::new(mem.clone()), mem, None)
    };
    let (store, db_counts) = ProbeStore::new(inner);
    let store = store.with_spans(Arc::clone(spans), "kvdb.sync", r);
    let db_key = AeadKey::from_bytes([0x10 + r as u8; 32]);
    let db = Db::create(Box::new(store), db_key.clone()).map_err(|e| format!("create db: {e}"))?;
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(format!("perf-replica-{r}").as_bytes()),
        Digest::ZERO,
        0xBE7C + u64::from(r),
    ));
    engine.register_platform(&factory.platform_id, factory.qe_key);
    let (fs_store, counter_store) = ProbeStore::new(Box::new(MemStore::new()));
    let fs = ShieldedFs::create(
        Box::new(fs_store),
        AeadKey::from_bytes([0xD0 + r as u8; 32]),
    );
    let counter = ShieldedCounter::create(fs).map_err(|e| format!("counter fs: {e}"))?;
    let (counter, counter_counts) = ProbeCounter::new(counter);
    let counter = counter.with_spans(Arc::clone(spans), r);
    let (server, batched) = strict_shard(engine, counter);
    Ok((
        (server, Some(batched)),
        ReplicaProbes {
            db: db_counts,
            blobs,
            device: handle,
            db_key,
            counter: counter_counts,
            counter_store,
        },
    ))
}

impl Factory {
    /// The request factory for `policies` policies: names, the parsed
    /// policy template, and the pool of pre-signed quotes (so the generator
    /// signs nothing inside the window).
    pub fn new(policies: usize) -> Result<Factory, String> {
        let platform = Platform::new("perf-host", Microcode::PostForeshadow);
        Ok(Factory {
            owner: SigningKey::from_seed(b"perf-owner").verifying_key(),
            names: (0..policies).map(|i| format!("tenant_{i}")).collect(),
            template: Policy::parse(&policy_text("template", 0))
                .map_err(|e| format!("policy: {e}"))?,
            quotes: sign_quotes(&platform, QUOTE_POOL)?,
            platform_id: platform.id().to_string(),
            qe_key: platform.qe_verifying_key(),
        })
    }

    /// Builds one request. `seq` is the tag sequence number (`PushTag`) or
    /// the policy version (`UpdatePolicy`); `salt` picks which pooled quote
    /// an `Attest` presents.
    pub fn request(
        &self,
        kind: Kind,
        policy: u32,
        session: SessionId,
        seq: u64,
        salt: u64,
    ) -> TmsRequest {
        match kind {
            Kind::PushTag => TmsRequest::PushTag {
                session,
                volume: "data".into(),
                tag: tag_for(policy, seq),
                event: TagEvent::Sync,
            },
            Kind::UpdatePolicy => TmsRequest::UpdatePolicy {
                client: self.owner,
                policy: Box::new(self.policy(policy, seq)),
                approval: None,
                votes: Vec::new(),
            },
            Kind::ReadTag => TmsRequest::ReadTag {
                session,
                volume: "data".into(),
            },
            Kind::ReadPolicy => TmsRequest::ReadPolicy {
                name: self.names[policy as usize].clone(),
                client: self.owner,
                approval: None,
                votes: Vec::new(),
            },
            Kind::Attest => {
                let signed = &self.quotes[(salt as usize) % self.quotes.len()];
                TmsRequest::AttestService {
                    quote: Box::new(signed.quote.clone()),
                    tls_key_binding: signed.binding,
                    policy_name: self.names[policy as usize].clone(),
                    service_name: "app".into(),
                }
            }
            Kind::Close => TmsRequest::CloseSession { session },
        }
    }

    /// Policy `tenant_<policy>` at `version`: the parsed template with its
    /// name and payload swapped, so the generator parses nothing in the
    /// window.
    pub fn policy(&self, policy: u32, version: u64) -> Policy {
        let mut p = self.template.clone();
        p.name.clone_from(&self.names[policy as usize]);
        p.services[0].env.insert("PAYLOAD".into(), payload(version));
        p
    }
}

/// Submits `requests` all at once and waits for every answer: set-up is
/// pipelined through the door like any other traffic.
fn pipelined<T: Send + 'static>(
    door: &Door,
    requests: Vec<TmsRequest>,
    what: &str,
    pick: fn(TmsResponse) -> Option<T>,
) -> Result<Vec<T>, String> {
    let n = requests.len();
    let (tx, rx) = mpsc::channel();
    for (i, request) in requests.into_iter().enumerate() {
        let tx = tx.clone();
        door.submit_with(request, move |result| {
            let _ = tx.send((i, result));
        });
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, result) = rx
            .recv()
            .map_err(|e| format!("{what}: door hung up: {e}"))?;
        let response = result.map_err(|e| format!("{what} #{i}: {e}"))?;
        out[i] = Some(pick(response).ok_or_else(|| format!("{what} #{i}: unexpected answer"))?);
    }
    Ok(out
        .into_iter()
        .map(|v| v.expect("every index answered"))
        .collect())
}

impl Rig {
    /// Builds the cluster, creates `policies` policies pipelined through
    /// the door, signs the quote pool and attests one session per
    /// generator slot — the work `setup_s` times. With `armed`, the
    /// workload's modelled delays are on from the first request, so set-up
    /// on a `_dev` workload is paced by the device like the run itself
    /// (and steady for it); on a `_cpu` workload there is nothing to arm
    /// and set-up time is the machine's own.
    pub fn set_up(
        spec: &Spec,
        seed: u64,
        policies: usize,
        threads: usize,
        telemetry_door: bool,
        armed: bool,
    ) -> Result<(Rig, f64), String> {
        let started = Instant::now();
        let slots = spec.slots(threads);
        if policies < slots {
            return Err(format!(
                "{policies} policies cannot give {slots} slots one each"
            ));
        }
        let factory = Arc::new(Factory::new(policies)?);
        let spans = SpanSink::new();
        let router = Arc::new(ClusterRouter::new(0x9A1A, 64));
        let mut set = Vec::new();
        let mut replicas = Vec::new();
        for r in 0..spec.replicas {
            let (member, probes) = build_replica(r, spec.device, &factory, &spans)?;
            set.push(member);
            replicas.push(probes);
        }
        router
            .add_replicated_shard(SHARD, set, (spec.replicas as usize).min(2))
            .map_err(|e| format!("replicated shard: {e}"))?;
        if spec.quorum_reads {
            router.set_read_preference(ReadPreference::Quorum);
        }
        let probe_door = ProbeDoor::new(ClusterDoor(Arc::clone(&router)));
        let door = if telemetry_door {
            // Tracing starts on; the traced run switches it on itself, for
            // its traced segments only, so set-up and warm-up stay out of
            // the program's stage histograms.
            router.telemetry().set_tracing(false);
            FrontDoor::with_telemetry(
                probe_door.clone(),
                DOOR_WORKERS,
                DOOR_CAPACITY,
                Arc::clone(router.telemetry()),
            )
        } else {
            FrontDoor::with_capacity(probe_door.clone(), DOOR_WORKERS, DOOR_CAPACITY)
        };

        let mut rig = Rig {
            spec: *spec,
            router,
            door: Some(door),
            probe_door,
            replicas,
            spans,
            factory,
            slots: Vec::new(),
        };
        if armed {
            rig.arm();
        }
        let (door, factory) = (rig.door(), &rig.factory);

        let creates = (0..policies)
            .map(|i| TmsRequest::CreatePolicy {
                owner: factory.owner,
                policy: Box::new(factory.policy(i as u32, 0)),
                approval: None,
                votes: Vec::new(),
            })
            .collect();
        pipelined(door, creates, "create policy", |r| {
            matches!(r, TmsResponse::Done).then_some(())
        })?;

        let seeds: Vec<(u32, Option<SlotScript>)> = (0..slots)
            .map(|slot| {
                let (first, count) = partition(policies, slots, slot);
                match spec.shape {
                    Shape::Churn => {
                        let mut rng = Rng::lane(seed, slot as u64 + 1);
                        (first + rng.below(u64::from(count)) as u32, None)
                    }
                    shape => {
                        let script = SlotScript::new(shape, seed, slot, first, count);
                        (script.initial_policy(), Some(script))
                    }
                }
            })
            .collect();
        let attests = seeds
            .iter()
            .enumerate()
            .map(|(slot, (policy, _))| {
                factory.request(Kind::Attest, *policy, SessionId(0), 0, slot as u64)
            })
            .collect();
        let sessions = pipelined(door, attests, "attest", |r| match r {
            TmsResponse::Config(config) => Some(config.session),
            _ => None,
        })?;
        rig.slots = seeds
            .into_iter()
            .zip(sessions)
            .map(|((policy, script), session)| SlotSeed {
                session,
                policy,
                script,
            })
            .collect();
        Ok((rig, started.elapsed().as_secs_f64()))
    }

    /// The front door every request goes through.
    pub fn door(&self) -> &Door {
        self.door.as_ref().expect("the door is open until drained")
    }

    /// Shuts the door: every accepted request completes, the workers are
    /// joined, and the final counters come back.
    pub fn drain_door(&mut self) -> FrontDoorStats {
        self.door.take().expect("the door is drained once").drain()
    }

    /// Switches the workload's modelled delays on: the 1 ms device `sync`
    /// on every replica and the 1 ms wire per shipped batch.
    fn arm(&self) {
        for replica in &self.replicas {
            if let Some(device) = &replica.device {
                device.arm(true);
            }
        }
        if self.spec.wire {
            self.router.set_forward_latency(WIRE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_versions_read_back() {
        let tag = tag_for(7, 0x0102_0304_0506_0708);
        assert_eq!(tag_seq(&tag), 0x0102_0304_0506_0708);
        let p = Policy::parse(&policy_text("tenant_3", 42)).expect("parse");
        assert_eq!(policy_version(&p), Some(42));
        assert_eq!(p.services[0].env["PAYLOAD"].len(), PAYLOAD_BYTES);
    }
}
