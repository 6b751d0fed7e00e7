//! The five named workloads and the seeded op streams that drive them.
//! A stream is a function of `(workload, seed, slot)` alone — the program's
//! answers never change which request comes next — so one seed names one
//! input and its fingerprint can be compared across runs.

use crate::stats::{Fnv, Rng};

/// One request type the generator issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    PushTag = 0,
    UpdatePolicy = 1,
    ReadTag = 2,
    ReadPolicy = 3,
    Attest = 4,
    Close = 5,
}

/// The latency class a request is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `PushTag` + `UpdatePolicy`.
    Mutation,
    /// `ReadTag` + `ReadPolicy`.
    Read,
    /// `AttestService` (config delivered).
    Attest,
    /// `CloseSession`: counted in throughput, in no latency class.
    Other,
}

impl Kind {
    pub fn class(self) -> Class {
        match self {
            Kind::PushTag | Kind::UpdatePolicy => Class::Mutation,
            Kind::ReadTag | Kind::ReadPolicy => Class::Read,
            Kind::Attest => Class::Attest,
            Kind::Close => Class::Other,
        }
    }
}

/// How a workload's requests are shaped and paced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop, write-heavy: 45 `PushTag`, 5 `UpdatePolicy`, 20
    /// `ReadTag`, 10 `ReadPolicy` and 10 re-attachments (`CloseSession`
    /// then `AttestService` under another policy) per 90 draws — half of
    /// all requests are mutations, nine pushes to one update.
    PushMix,
    /// Closed loop, application start: each slot cycles `AttestService →
    /// ReadTag → ReadPolicy → CloseSession`, pushing a tag on every tenth
    /// cycle.
    Lifecycle,
    /// Open loop at [`CHURN_RATE`] requests per second under injected
    /// faults: 20 % `PushTag`, 35 % `ReadTag`, 35 % `ReadPolicy`, 10 %
    /// `AttestService` (a fresh session replaces the slot's).
    Churn,
}

/// Open-loop arrival rate of `churn_r3_dev`, requests per second.
pub const CHURN_RATE: u64 = 1000;
/// Sessions the open loop spreads its requests over.
pub const CHURN_SESSIONS: usize = 64;
/// Replicated mutations between two injected faults.
pub const FAULT_EVERY_OPS: u64 = 100;
/// Closed-loop sessions per generator thread (each has one request in
/// flight).
pub const SLOTS_PER_THREAD: usize = 8;

/// One named workload: its fixed configuration and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub replicas: u32,
    /// Every replica's DB store sits on a device whose `sync` sleeps 1 ms.
    pub device: bool,
    /// Every shipped replication batch pays a 1 ms one-way wire.
    pub wire: bool,
    /// Reads and attestations fan out over the freshness-checked group.
    pub quorum_reads: bool,
    pub shape: Shape,
    /// Latency limit a request must meet to count toward `slo_miss_share`.
    pub slo_us: u64,
    /// Listed in `BENCHMARK.json`, so a later change is held to the bounds
    /// on it. Two workloads are not, because ten runs of one build spread
    /// wider on them than the 25 % the contract allows a bound to be:
    /// `churn_r3_dev`, whose tail is the longest few of some twenty fault
    /// stalls and whose microsecond medians are the host's wake-up latency
    /// (30-90 %), and `lifecycle_r3_cpu`, which is CPU-saturated and so
    /// follows a shared host's speed (up to 30 %). Both are run, checked
    /// and printed like the others.
    pub gated: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "push_r1_dev",
        why: "Single-node baseline on a 1 ms device: kvdb group commit, counterfile batching and the frontdoor queue do the work, cluster replication none.",
        replicas: 1,
        device: true,
        wire: false,
        quorum_reads: false,
        shape: Shape::PushMix,
        slo_us: 25_000,
        gated: true,
    },
    Spec {
        name: "push_r3_dev",
        why: "Same stream at R=3 quorum 2 with a 1 ms device and 1 ms wire: the durable-replication tax (pipes, follower apply, follower syncs).",
        replicas: 3,
        device: true,
        wire: true,
        quorum_reads: false,
        shape: Shape::PushMix,
        slo_us: 100_000,
        gated: true,
    },
    Spec {
        name: "push_r1_cpu",
        why: "Same stream at R=1 with no modelled delay: the only place a CPU saving on the write path (parse, tree copy, WAL encode, AEAD, counter file) shows.",
        replicas: 1,
        device: false,
        wire: false,
        quorum_reads: false,
        shape: Shape::PushMix,
        slo_us: 25_000,
        gated: true,
    },
    Spec {
        name: "lifecycle_r3_cpu",
        why: "Application-start path at R=3 with quorum reads and no modelled delay: attestation, follower reads, freshness checks and session mirroring instead of writes.",
        replicas: 3,
        device: false,
        wire: false,
        quorum_reads: true,
        shape: Shape::Lifecycle,
        slo_us: 25_000,
        gated: false,
    },
    Spec {
        name: "churn_r3_dev",
        why: "Open loop at 1000 req/s on R=3 with 1 ms device and wire while primaries crash and followers lose deltas: stalls, resyncs and catch-up are charged to the requests due meanwhile.",
        replicas: 3,
        device: true,
        wire: true,
        quorum_reads: true,
        shape: Shape::Churn,
        slo_us: 25_000,
        gated: false,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Sessions the generator keeps (one request in flight each in the
    /// closed loops).
    pub fn slots(&self, threads: usize) -> usize {
        match self.shape {
            Shape::Churn => CHURN_SESSIONS,
            Shape::PushMix | Shape::Lifecycle => threads * SLOTS_PER_THREAD,
        }
    }
}

/// One step of a slot's script: which request, under which policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub kind: Kind,
    pub policy: u32,
}

/// The closed-loop script of one slot. The slot owns the policies
/// `first..first + count` (no other slot touches them, so a slot knows the
/// last acknowledged tag and version of each) and starts attached to
/// [`SlotScript::initial_policy`], which set-up attests.
#[derive(Debug, Clone)]
pub struct SlotScript {
    shape: Shape,
    rng: Rng,
    first: u32,
    count: u32,
    policy: u32,
    /// Steps already decided (the tail of a multi-request op).
    queued: [Option<Step>; 4],
    cycle: u64,
}

impl SlotScript {
    pub fn new(shape: Shape, seed: u64, slot: usize, first: u32, count: u32) -> SlotScript {
        assert!(count > 0, "a slot needs at least one policy");
        let mut rng = Rng::lane(seed, slot as u64 + 1);
        let policy = first + rng.below(u64::from(count)) as u32;
        let mut script = SlotScript {
            shape,
            rng,
            first,
            count,
            policy,
            queued: [None; 4],
            cycle: 0,
        };
        if shape == Shape::Lifecycle {
            // Set-up already attested: enter the cycle after its first step.
            script.queue_lifecycle_tail();
        }
        script
    }

    /// The policy the slot's first session is attested under.
    pub fn initial_policy(&self) -> u32 {
        self.policy
    }

    fn pick_policy(&mut self) -> u32 {
        self.first + self.rng.below(u64::from(self.count)) as u32
    }

    fn queue(&mut self, steps: &[Step]) {
        debug_assert!(self.queued.iter().all(Option::is_none));
        for (slot, step) in self.queued.iter_mut().zip(steps) {
            *slot = Some(*step);
        }
    }

    fn queue_lifecycle_tail(&mut self) {
        let policy = self.policy;
        let step = |kind| Step { kind, policy };
        self.cycle += 1;
        if self.cycle.is_multiple_of(10) {
            self.queue(&[
                step(Kind::PushTag),
                step(Kind::ReadTag),
                step(Kind::ReadPolicy),
                step(Kind::Close),
            ]);
        } else {
            self.queue(&[
                step(Kind::ReadTag),
                step(Kind::ReadPolicy),
                step(Kind::Close),
            ]);
        }
    }

    /// The slot's next request.
    pub fn next_step(&mut self) -> Step {
        if let Some(i) = self.queued.iter().position(Option::is_some) {
            return self.queued[i].take().expect("position found it");
        }
        match self.shape {
            Shape::PushMix => {
                let policy = self.policy;
                match self.rng.below(90) {
                    0..=44 => Step {
                        kind: Kind::PushTag,
                        policy,
                    },
                    45..=49 => Step {
                        kind: Kind::UpdatePolicy,
                        policy,
                    },
                    50..=69 => Step {
                        kind: Kind::ReadTag,
                        policy,
                    },
                    70..=79 => Step {
                        kind: Kind::ReadPolicy,
                        policy,
                    },
                    _ => {
                        let close = Step {
                            kind: Kind::Close,
                            policy,
                        };
                        self.policy = self.pick_policy();
                        self.queue(&[Step {
                            kind: Kind::Attest,
                            policy: self.policy,
                        }]);
                        close
                    }
                }
            }
            Shape::Lifecycle => {
                self.policy = self.pick_policy();
                let attest = Step {
                    kind: Kind::Attest,
                    policy: self.policy,
                };
                self.queue_lifecycle_tail();
                attest
            }
            Shape::Churn => unreachable!("the open loop is scheduled, not scripted"),
        }
    }
}

/// One arrival of the open loop: which request, on which session slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    pub kind: Kind,
    pub slot: u16,
}

/// The open loop's arrivals, one per `1 / CHURN_RATE` seconds. Reads and
/// attestations land on a random session; pushes walk a seeded permutation
/// of the sessions, so two pushes on one session are 64 pushes (about
/// 320 ms) apart and the one-push-in-flight rule never holds the sender up
/// unless a push takes that long.
pub fn churn_schedule(seed: u64, ticks: usize) -> Vec<Tick> {
    let mut rng = Rng::lane(seed, 0x00C0_FFEE);
    let mut order: Vec<u16> = (0..CHURN_SESSIONS as u16).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut pushes = 0usize;
    (0..ticks)
        .map(|_| {
            let kind = match rng.below(100) {
                0..=19 => Kind::PushTag,
                20..=54 => Kind::ReadTag,
                55..=89 => Kind::ReadPolicy,
                _ => Kind::Attest,
            };
            let any = rng.below(CHURN_SESSIONS as u64) as u16;
            let slot = if kind == Kind::PushTag {
                pushes += 1;
                order[(pushes - 1) % order.len()]
            } else {
                any
            };
            Tick { kind, slot }
        })
        .collect()
}

/// The policy each slot is bound to: slot `s` owns an equal share of the
/// policies and the seed picks one inside it.
pub fn partition(policies: usize, slots: usize, slot: usize) -> (u32, u32) {
    let per = (policies / slots).max(1);
    let first = (slot * per) % policies.max(1);
    (first as u32, per.min(policies - first) as u32)
}

/// Fingerprint of the first `steps` requests of every slot (closed loops)
/// or the first `steps` arrivals (open loop): equal for equal seeds,
/// different otherwise.
pub fn stream_hash(spec: &Spec, seed: u64, policies: usize, threads: usize, steps: usize) -> u64 {
    let mut h = Fnv::default();
    match spec.shape {
        Shape::Churn => {
            for t in churn_schedule(seed, steps) {
                h.push(&[t.kind as u8]);
                h.push(&t.slot.to_le_bytes());
            }
        }
        Shape::PushMix | Shape::Lifecycle => {
            let slots = spec.slots(threads);
            for slot in 0..slots {
                let (first, count) = partition(policies, slots, slot);
                let mut script = SlotScript::new(spec.shape, seed, slot, first, count);
                h.push(&script.initial_policy().to_le_bytes());
                for _ in 0..steps {
                    let s = script.next_step();
                    h.push(&[s.kind as u8]);
                    h.push(&s.policy.to_le_bytes());
                }
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &WORKLOADS {
            let a = stream_hash(spec, 11, 1024, 2, 500);
            let b = stream_hash(spec, 11, 1024, 2, 500);
            let c = stream_hash(spec, 12, 1024, 2, 500);
            assert_eq!(a, b, "{}: one seed, one stream", spec.name);
            assert_ne!(a, c, "{}: another seed, another stream", spec.name);
        }
    }

    #[test]
    fn push_mix_is_half_mutations_nine_pushes_to_one_update() {
        let mut script = SlotScript::new(Shape::PushMix, 5, 0, 0, 64);
        let mut counts = [0usize; 6];
        let n = 200_000;
        for _ in 0..n {
            counts[script.next_step().kind as usize] += 1;
        }
        let share = |k: Kind| counts[k as usize] as f64 / n as f64;
        assert!((share(Kind::PushTag) - 0.45).abs() < 0.01);
        assert!((share(Kind::UpdatePolicy) - 0.05).abs() < 0.005);
        assert!((share(Kind::ReadTag) - 0.20).abs() < 0.01);
        assert!((share(Kind::ReadPolicy) - 0.10).abs() < 0.01);
        assert!((share(Kind::Attest) - 0.10).abs() < 0.01);
        assert_eq!(counts[Kind::Attest as usize], counts[Kind::Close as usize]);
    }

    #[test]
    fn a_slot_never_uses_a_closed_session_or_a_foreign_policy() {
        for shape in [Shape::PushMix, Shape::Lifecycle] {
            let mut script = SlotScript::new(shape, 9, 3, 192, 64);
            let mut attached = Some(script.initial_policy());
            for _ in 0..50_000 {
                let s = script.next_step();
                assert!((192..256).contains(&s.policy));
                match s.kind {
                    Kind::Attest => {
                        assert_eq!(attached, None, "attest only when detached");
                        attached = Some(s.policy);
                    }
                    Kind::Close => {
                        assert_eq!(attached, Some(s.policy));
                        attached = None;
                    }
                    _ => assert_eq!(attached, Some(s.policy), "{:?} needs its session", s.kind),
                }
            }
        }
    }

    #[test]
    fn lifecycle_pushes_on_every_tenth_cycle() {
        let mut script = SlotScript::new(Shape::Lifecycle, 1, 0, 0, 8);
        let mut counts = [0usize; 6];
        for _ in 0..41_000 {
            counts[script.next_step().kind as usize] += 1;
        }
        assert_eq!(counts[Kind::UpdatePolicy as usize], 0);
        let cycles = counts[Kind::Close as usize];
        assert!(counts[Kind::PushTag as usize].abs_diff(cycles / 10) <= 1);
        assert!(counts[Kind::ReadTag as usize].abs_diff(cycles) <= 1);
    }

    #[test]
    fn partitions_are_disjoint_and_cover_only_existing_policies() {
        let mut seen = vec![false; 1024];
        for slot in 0..16 {
            let (first, count) = partition(1024, 16, slot);
            assert_eq!(count, 64);
            for p in first..first + count {
                assert!(!seen[p as usize]);
                seen[p as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Fewer policies than slots: slots share, never index out of range.
        for slot in 0..64 {
            let (first, count) = partition(16, 64, slot);
            assert!(first + count <= 16 && count >= 1);
        }
    }
}
