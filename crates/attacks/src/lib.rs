//! # tchain-attacks — free-riding strategies
//!
//! The paper's threat model (§III-A, §IV-C, §IV-D): free-riders contribute
//! **zero upload bandwidth** and additionally mount strategic-manipulation
//! attacks to dodge penalties:
//!
//! * **Large-view exploit** — request a fresh neighbor list from the
//!   tracker *every rechoke period* (vs. only on refill) and accept every
//!   incoming connection, maximizing exposure to optimistic unchokes and
//!   seeder altruism.
//! * **Whitewashing** — discard the current identity as soon as it has
//!   extracted a free piece (resetting FairTorrent deficits and any local
//!   ledgers) and rejoin as a fresh newcomer.
//! * **Sybil identities** — operate several concurrent identities; in
//!   T-Chain these matter only if a transaction's requestor *and* payee
//!   land in the same attacker's hands (§III-A4).
//! * **Collusion** — members of a colluder set send *false reception
//!   reports* on each other's behalf, the only T-Chain-specific loophole
//!   (§III-A4, evaluated in §IV-D).
//!
//! Strategies are *descriptions*; the protocol drivers consult them when a
//! behavioural fork arises (upload nothing, re-query the tracker, lie in a
//! report). Protocols never see the strategy directly — only its effects.
//!
//! [`Roster`] turns a `Vec<PeerPlan>` into a running swarm's membership:
//! the one plan-driven lifecycle the fluid drivers of `tchain-core` and
//! `tchain-baselines` share. [`FluidDriver`] is the surface both drivers
//! implement: the run loops and summaries over that lifecycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod roster;

pub use roster::{FluidDriver, Roster};

use std::collections::HashMap;
use tchain_sim::NodeId;

/// Identifier of a colluder (or Sybil) set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub u32);

/// How a peer behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Follows the protocol faithfully.
    #[default]
    Compliant,
    /// Uploads nothing and optionally mounts the listed manipulations.
    FreeRider(FreeRiderConfig),
}

impl Strategy {
    /// The plain §III-A free-rider: zero upload, no manipulations.
    pub fn zero_upload() -> Self {
        Strategy::FreeRider(FreeRiderConfig::default())
    }

    /// The §IV-C free-rider: zero upload + large-view + whitewashing.
    pub fn aggressive_free_rider() -> Self {
        Strategy::FreeRider(FreeRiderConfig { large_view: true, whitewash: true, collude: None })
    }

    /// The §IV-D free-rider: as above, plus membership in one global
    /// colluder set that sends false reception reports.
    pub fn colluding_free_rider(group: GroupId) -> Self {
        Strategy::FreeRider(FreeRiderConfig {
            large_view: true,
            whitewash: true,
            collude: Some(group),
        })
    }

    /// Whether the peer contributes upload bandwidth.
    pub fn uploads(&self) -> bool {
        matches!(self, Strategy::Compliant)
    }

    /// Whether the peer is a free-rider of any kind.
    pub fn is_free_rider(&self) -> bool {
        matches!(self, Strategy::FreeRider(_))
    }

    /// The free-rider configuration, if any.
    pub fn free_rider(&self) -> Option<&FreeRiderConfig> {
        match self {
            Strategy::FreeRider(c) => Some(c),
            Strategy::Compliant => None,
        }
    }

    /// Whether the peer re-queries the tracker every rechoke period and
    /// accepts every connection (§IV-C large view).
    pub fn large_view(&self) -> bool {
        self.free_rider().is_some_and(|c| c.large_view)
    }

    /// Whether the peer discards its identity to shed penalties (§IV-C).
    pub fn whitewash(&self) -> bool {
        self.free_rider().is_some_and(|c| c.whitewash)
    }

    /// The colluder/Sybil set the peer belongs to (§III-A4, §IV-D).
    pub fn collusion_group(&self) -> Option<GroupId> {
        self.free_rider().and_then(|c| c.collude)
    }

    /// Whether the strategy mounts any manipulation beyond zero upload
    /// (large-view, whitewashing, or collusion). Drivers use this to gate
    /// attack machinery so manipulation-free runs stay draw-for-draw
    /// identical to their pre-strategy baselines.
    pub fn manipulates(&self) -> bool {
        self.free_rider().is_some_and(FreeRiderConfig::manipulates)
    }
}

/// Manipulation techniques a free-rider layers on top of zero upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreeRiderConfig {
    /// Re-query the tracker every rechoke period and accept all neighbors
    /// (§IV-C "more frequently than in normal BitTorrent operations").
    pub large_view: bool,
    /// Reset identity after extracting a free piece (§IV-C: "restores its
    /// deficit value (to zero), allowing it to be treated as another
    /// newcomer by the deceived neighbor").
    pub whitewash: bool,
    /// Colluder set, for false reception reports in T-Chain (§IV-D).
    pub collude: Option<GroupId>,
}

impl FreeRiderConfig {
    /// Whether any manipulation technique is enabled.
    pub fn manipulates(&self) -> bool {
        self.large_view || self.whitewash || self.collude.is_some()
    }
}

/// Tracks which live identities belong to which colluder set, across
/// whitewashing identity changes.
///
/// Drivers register each identity (and every replacement identity) under
/// the attacker's group; [`ColluderRegistry::same_group`] answers the only
/// question T-Chain's exchange ever poses: *are this transaction's
/// requestor and payee conspiring?*
#[derive(Debug, Default)]
pub struct ColluderRegistry {
    group_of: HashMap<NodeId, GroupId>,
}

impl ColluderRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers identity `id` as a member of `group`.
    pub fn register(&mut self, id: NodeId, group: GroupId) {
        self.group_of.insert(id, group);
    }

    /// Removes a retired identity (whitewash or departure).
    pub fn unregister(&mut self, id: NodeId) {
        self.group_of.remove(&id);
    }

    /// The group of an identity, if it belongs to one.
    pub fn group(&self, id: NodeId) -> Option<GroupId> {
        self.group_of.get(&id).copied()
    }

    /// Whether two identities belong to the same colluder set — the §IV-D
    /// precondition for a false reception report to be sent.
    pub fn same_group(&self, a: NodeId, b: NodeId) -> bool {
        match (self.group(a), self.group(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// `true` when no identity is registered.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }
}

/// One planned arrival: who joins, when, with what capacity and behaviour.
///
/// Experiment harnesses build a `Vec<PeerPlan>` from a workload (flash
/// crowd or trace) and hand it to a protocol driver; the driver admits the
/// peer when the clock reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerPlan {
    /// Join time in seconds.
    pub at: f64,
    /// Upload capacity in bytes per second the peer *would* contribute;
    /// free-riders contribute 0 regardless (§IV-C), but the value is kept
    /// so whitewashed rejoins and churn replacements stay consistent.
    pub capacity: f64,
    /// Behaviour.
    pub strategy: Strategy,
    /// Abrupt crash time, if scheduled: the peer dies silently at this
    /// time — no goodbye, no §II-B4 handover — exercising the drivers'
    /// timeout/escrow recovery. Composable with any [`Strategy`], so a
    /// free-rider can also crash mid-attack.
    pub crash_at: Option<f64>,
}

impl PeerPlan {
    /// A compliant leecher.
    pub fn compliant(at: f64, capacity: f64) -> Self {
        PeerPlan { at, capacity, strategy: Strategy::Compliant, crash_at: None }
    }

    /// A §IV-C aggressive free-rider (zero upload, large-view, whitewash).
    pub fn free_rider(at: f64, capacity: f64) -> Self {
        PeerPlan { at, capacity, strategy: Strategy::aggressive_free_rider(), crash_at: None }
    }

    /// Schedules an abrupt crash at the given time.
    pub fn crashing_at(mut self, at: f64) -> Self {
        self.crash_at = Some(at);
        self
    }

    /// Effective upload capacity after applying the strategy.
    pub fn effective_capacity(&self) -> f64 {
        if self.strategy.uploads() {
            self.capacity
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compliant_uploads_free_rider_does_not() {
        assert!(Strategy::Compliant.uploads());
        assert!(!Strategy::aggressive_free_rider().uploads());
        assert!(Strategy::aggressive_free_rider().is_free_rider());
        assert!(!Strategy::Compliant.is_free_rider());
    }

    #[test]
    fn zero_upload_has_no_manipulations() {
        let s = Strategy::zero_upload();
        assert!(s.is_free_rider() && !s.uploads());
        assert!(!s.manipulates());
        assert!(Strategy::aggressive_free_rider().manipulates());
        assert!(Strategy::colluding_free_rider(GroupId(0)).manipulates());
        assert!(!Strategy::Compliant.manipulates());
    }

    #[test]
    fn capabilities_follow_the_config() {
        let c = Strategy::Compliant;
        assert!(!c.large_view() && !c.whitewash() && c.collusion_group().is_none());
        let plain = Strategy::zero_upload();
        assert!(!plain.large_view() && !plain.whitewash() && plain.collusion_group().is_none());
        let a = Strategy::aggressive_free_rider();
        assert!(a.large_view() && a.whitewash() && a.collusion_group().is_none());
        let k = Strategy::colluding_free_rider(GroupId(7));
        assert_eq!(k.collusion_group(), Some(GroupId(7)));
    }

    #[test]
    fn aggressive_config() {
        let c = *Strategy::aggressive_free_rider().free_rider().unwrap();
        assert!(c.large_view && c.whitewash && c.collude.is_none());
    }

    #[test]
    fn colluding_config_carries_group() {
        let s = Strategy::colluding_free_rider(GroupId(3));
        assert_eq!(s.free_rider().unwrap().collude, Some(GroupId(3)));
    }

    #[test]
    fn registry_same_group() {
        let mut r = ColluderRegistry::new();
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        r.register(a, GroupId(0));
        r.register(b, GroupId(0));
        r.register(c, GroupId(1));
        assert!(r.same_group(a, b));
        assert!(!r.same_group(a, c));
        assert!(!r.same_group(a, NodeId(99)));
        r.unregister(b);
        assert!(!r.same_group(a, b), "retired identities stop colluding");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn crash_schedule_composes_with_strategies() {
        let p = PeerPlan::compliant(1.0, 100.0);
        assert_eq!(p.crash_at, None, "no crash by default");
        let c = PeerPlan::free_rider(1.0, 100.0).crashing_at(30.0);
        assert_eq!(c.crash_at, Some(30.0));
        assert!(c.strategy.is_free_rider(), "crash composes with free-riding");
        assert_eq!(c.effective_capacity(), 0.0);
    }

    #[test]
    fn whitewash_identity_handover() {
        // An attacker whitewashes: old id retired, new id joins the group.
        let mut r = ColluderRegistry::new();
        let old = NodeId(5);
        r.register(old, GroupId(0));
        let fresh = NodeId(6);
        r.unregister(old);
        r.register(fresh, GroupId(0));
        r.register(NodeId(7), GroupId(0));
        assert!(r.same_group(fresh, NodeId(7)));
        assert!(r.group(old).is_none());
    }
}
