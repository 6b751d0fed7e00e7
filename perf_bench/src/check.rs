//! Correctness: what every answer must satisfy while the run is live, and
//! what the group must look like once it is over. A run that fails any of
//! these writes no metrics and exits non-zero.

use std::sync::Arc;

use palaemon_core::server::TmsResponse;
use palaemon_core::tms::{Palaemon, SessionId};
use palaemon_crypto::sig::SigningKey;
use palaemon_crypto::Digest;
use palaemon_db::Db;

use crate::drive::WatchOutput;
use crate::rig::{policy_version, tag_seq, Factory, Rig, SHARD};
use crate::workload::Kind;

/// Per policy: the highest tag sequence number and policy version the
/// program has acknowledged, and the highest the generator has issued.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Floors {
    pub acked_tag: Vec<u64>,
    pub acked_version: Vec<u64>,
    pub next_tag: Vec<u64>,
    pub next_version: Vec<u64>,
}

impl Floors {
    pub fn new(policies: usize) -> Floors {
        Floors {
            acked_tag: vec![0; policies],
            acked_version: vec![0; policies],
            next_tag: vec![0; policies],
            next_version: vec![0; policies],
        }
    }

    pub fn ack_tag(&mut self, policy: u32, seq: u64) {
        let slot = &mut self.acked_tag[policy as usize];
        *slot = (*slot).max(seq);
    }

    pub fn ack_version(&mut self, policy: u32, version: u64) {
        let slot = &mut self.acked_version[policy as usize];
        *slot = (*slot).max(version);
    }

    /// Folds in another thread's floors (each policy belongs to one
    /// thread, so the maximum is that thread's value).
    pub fn merge(&mut self, other: &Floors) {
        for (mine, theirs) in [
            (&mut self.acked_tag, &other.acked_tag),
            (&mut self.acked_version, &other.acked_version),
            (&mut self.next_tag, &other.next_tag),
            (&mut self.next_version, &other.next_version),
        ] {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m = (*m).max(*t);
            }
        }
    }
}

/// How many messages of each sort are kept verbatim.
const KEPT: usize = 8;

/// The live checker's tally: requests that ended in an error, and answers
/// that were wrong.
#[derive(Debug, Default, Clone)]
pub struct Verdicts {
    pub failed: u64,
    pub violations: u64,
    /// The first few of each, for the report.
    pub failure_notes: Vec<String>,
    pub violation_notes: Vec<String>,
}

impl Verdicts {
    pub fn failed(&mut self, kind: Kind, error: &str) {
        self.failed += 1;
        if self.failure_notes.len() < KEPT {
            self.failure_notes.push(format!("{kind:?}: {error}"));
        }
    }

    fn violation(&mut self, note: String) {
        self.violations += 1;
        if self.violation_notes.len() < KEPT {
            self.violation_notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Verdicts) {
        self.failed += other.failed;
        self.violations += other.violations;
        for (mine, theirs) in [
            (&mut self.failure_notes, other.failure_notes),
            (&mut self.violation_notes, other.violation_notes),
        ] {
            let room = KEPT.saturating_sub(mine.len());
            mine.extend(theirs.into_iter().take(room));
        }
    }

    /// Judges one successful answer. `floor` is what had been acknowledged
    /// for the policy when the request was sent (a tag sequence number for
    /// `ReadTag`/`Attest`, a version for `ReadPolicy`); `ceiling` is the
    /// highest tag sequence number ever issued for it. Returns the session
    /// an attestation opened.
    pub fn judge(
        &mut self,
        factory: &Factory,
        kind: Kind,
        policy: u32,
        floor: u64,
        ceiling: u64,
        response: &TmsResponse,
    ) -> Option<SessionId> {
        let name = &factory.names[policy as usize];
        match (kind, response) {
            (Kind::PushTag | Kind::UpdatePolicy | Kind::Close, TmsResponse::Done) => None,
            (Kind::ReadTag, TmsResponse::Tag(record)) => {
                let seq = record.map_or(0, |r| tag_seq(&r.tag));
                if seq < floor || seq > ceiling {
                    self.violation(format!(
                        "ReadTag {name}: tag #{seq}, acknowledged #{floor}, issued #{ceiling}"
                    ));
                }
                None
            }
            (Kind::ReadPolicy, TmsResponse::Policy(p)) => {
                let version = policy_version(p);
                if p.name != *name || version.is_none_or(|v| v < floor) {
                    self.violation(format!(
                        "ReadPolicy {name}: got '{}' v{version:?}, acknowledged v{floor}",
                        p.name
                    ));
                }
                None
            }
            (Kind::Attest, TmsResponse::Config(config)) => {
                match config.volumes.iter().find(|v| v.volume == "data") {
                    Some(grant) => {
                        let seq = grant.expected_tag.as_ref().map_or(0, tag_seq);
                        if seq < floor {
                            self.violation(format!(
                                "Attest {name}: expected tag #{seq}, acknowledged #{floor}"
                            ));
                        }
                    }
                    None => self.violation(format!("Attest {name}: no key for volume 'data'")),
                }
                Some(config.session)
            }
            (kind, other) => {
                self.violation(format!("{kind:?} {name}: answered {other:?}"));
                None
            }
        }
    }
}

/// The end-of-run checks. Call with the door drained.
pub fn final_checks(
    rig: &Rig,
    floors: &Floors,
    watch: &WatchOutput,
    durability: bool,
) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let router = &rig.router;

    if !router.flush_replication(SHARD) {
        problems.push("flush_replication: no such shard".into());
    }
    let stats = router.stats();
    if let Some(shard) = stats.shards.first() {
        if shard.queue_depths.iter().any(|&d| d > 0) {
            problems.push(format!(
                "pipes not empty after flush: {:?}",
                shard.queue_depths
            ));
        }
    }
    match router.replica_status(SHARD) {
        Some(status) => {
            for r in &status.replicas {
                if !r.in_quorum || r.quarantined {
                    problems.push(format!(
                        "replica {} ended out of the quorum (in_quorum {}, quarantined {})",
                        r.replica, r.in_quorum, r.quarantined
                    ));
                }
            }
        }
        None => problems.push("replica_status: no such shard".into()),
    }
    problems.extend(
        watch
            .applied_regressions
            .iter()
            .take(KEPT)
            .map(|r| format!("applied token went down: {r}")),
    );

    let engines = router.replica_engines(SHARD);
    let mut diverged = 0;
    for name in &rig.factory.names {
        let digests: Vec<Digest> = engines.iter().map(|e| e.policy_digest(name)).collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            diverged += 1;
            if diverged <= KEPT {
                problems.push(format!("replicas disagree on the records of {name}"));
            }
        }
    }
    if diverged > KEPT {
        problems.push(format!(
            "... and {} more diverged policies",
            diverged - KEPT
        ));
    }

    if durability {
        if let Err(e) = durability_check(rig, floors) {
            problems.extend(e);
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Reopens the current primary's database from a crash image — only what a
/// completed `sync` made durable — and checks, through a fresh attestation
/// and a policy read, that every acknowledged tag and policy version is in
/// it.
fn durability_check(rig: &Rig, floors: &Floors) -> Result<(), Vec<String>> {
    let primary = rig
        .router
        .replica_status(SHARD)
        .map(|s| s.primary)
        .ok_or_else(|| vec!["durability: no such shard".to_string()])?;
    let probes = &rig.replicas[primary];
    let device = probes
        .device
        .as_ref()
        .ok_or_else(|| vec!["durability: the workload has no device to crash".to_string()])?;
    let db = Db::open(Box::new(device.crash_image()), probes.db_key.clone())
        .map_err(|e| vec![format!("durability: crash image does not open: {e}")])?;
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(b"perf-reopened"),
        Digest::ZERO,
        1,
    ));
    let factory = &rig.factory;
    engine.register_platform(&factory.platform_id, factory.qe_key);

    let mut problems = Vec::new();
    let signed = &factory.quotes[0];
    for (policy, name) in factory.names.iter().enumerate() {
        let (tag_floor, version_floor) = (floors.acked_tag[policy], floors.acked_version[policy]);
        if tag_floor == 0 && version_floor == 0 {
            continue;
        }
        match engine.attest_service(&signed.quote, &signed.binding, name, "app") {
            Ok(config) => {
                let seq = config
                    .volumes
                    .iter()
                    .find(|v| v.volume == "data")
                    .and_then(|v| v.expected_tag.as_ref())
                    .map_or(0, tag_seq);
                if seq < tag_floor {
                    problems.push(format!(
                        "durability: {name} reopened at tag #{seq}, acknowledged #{tag_floor}"
                    ));
                }
            }
            Err(e) => problems.push(format!("durability: attest {name} after reopen: {e}")),
        }
        match engine.read_policy(name, &factory.owner, None, &[]) {
            Ok(p) if policy_version(&p).is_some_and(|v| v >= version_floor) => {}
            Ok(p) => problems.push(format!(
                "durability: {name} reopened at v{:?}, acknowledged v{version_floor}",
                policy_version(&p)
            )),
            Err(e) => problems.push(format!("durability: read {name} after reopen: {e}")),
        }
        if problems.len() >= KEPT {
            break;
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_merge_by_maximum() {
        let mut a = Floors::new(3);
        let mut b = Floors::new(3);
        a.ack_tag(0, 5);
        a.ack_tag(0, 3);
        b.ack_tag(1, 9);
        b.ack_version(2, 4);
        b.next_tag[1] = 11;
        a.merge(&b);
        assert_eq!(a.acked_tag, vec![5, 9, 0]);
        assert_eq!(a.acked_version, vec![0, 0, 4]);
        assert_eq!(a.next_tag, vec![0, 11, 0]);
    }

    #[test]
    fn verdicts_keep_the_first_few_notes_and_every_count() {
        let mut v = Verdicts::default();
        for i in 0..20 {
            v.failed(Kind::PushTag, &format!("e{i}"));
        }
        let mut w = Verdicts::default();
        w.failed(Kind::ReadTag, "late");
        w.merge(v);
        assert_eq!(w.failed, 21);
        assert_eq!(w.failure_notes.len(), KEPT);
        assert_eq!(w.failure_notes[0], "ReadTag: late");
    }
}
