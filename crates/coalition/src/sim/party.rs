//! One simulated AMS party: a [`PdpHandle`] serving decision traffic, a
//! degraded-mode setting, and the minimal control-plane state the fabric
//! protocol needs (adopted policy version, up/recovering flags).
//!
//! The party's serving lifecycle mirrors the real
//! [`Ams`](agenp_core::arch::Ams): it boots *recovering* with a denying
//! snapshot (deny-by-default until the first refresh lands), publishes a
//! healthy snapshot whenever it adopts a coalition policy version, and on
//! a failed refresh either publishes a degraded denying snapshot
//! ([`DegradedMode::DenyByDefault`]) or keeps serving the last good one
//! ([`DegradedMode::ServeLastGood`]).

use agenp_core::arch::{AmsError, DecisionSnapshot, DegradedMode, PdpHandle};
use agenp_policy::{CombiningAlg, Policy};

/// What a party's current snapshot can legitimately answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serving {
    /// Serving the policy set of coalition version `version`.
    Healthy {
        /// The adopted coalition policy version.
        version: u64,
    },
    /// Serving a denying snapshot (bootstrap, crash-restart, or a
    /// deny-by-default degradation): every decision must be `Deny` and
    /// must carry the degradation error.
    Denying,
}

/// One simulated coalition party.
#[derive(Debug)]
pub struct SimParty {
    /// The party's node id (also its index).
    pub id: usize,
    /// What this party does when a refresh fails.
    pub mode: DegradedMode,
    /// False while crashed: no messages, no decisions.
    pub up: bool,
    /// True from boot/restart until the first successful adoption.
    pub recovering: bool,
    /// The coalition policy version this party has adopted (0 = none).
    pub version: u64,
    /// What the current snapshot legitimately serves.
    pub serving: Serving,
    /// The epoch assigned by the party's most recent publish. Every
    /// decision outcome must carry exactly this epoch — anything else is
    /// a stale-epoch serve.
    pub last_publish_epoch: u64,
    handle: PdpHandle,
}

impl SimParty {
    /// A freshly booted party: deny-by-default until the first refresh.
    pub fn new(id: usize, mode: DegradedMode) -> SimParty {
        let mut party = SimParty {
            id,
            mode,
            up: true,
            recovering: true,
            version: 0,
            serving: Serving::Denying,
            last_publish_epoch: 0,
            handle: PdpHandle::new(),
        };
        party.publish_denying(AmsError::Unavailable(
            "awaiting first policy snapshot".to_owned(),
        ));
        party
    }

    /// The party's serving handle (pin per decision batch).
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }

    /// Adopts coalition policy version `version` with its policy set:
    /// publishes a healthy snapshot and leaves recovery.
    pub fn publish_healthy(&mut self, version: u64, policies: Vec<Policy>) {
        self.last_publish_epoch = self
            .handle
            .publish(DecisionSnapshot::new(policies, CombiningAlg::DenyOverrides));
        self.version = version;
        self.serving = Serving::Healthy { version };
        self.recovering = false;
    }

    /// Publishes a degraded denying snapshot carrying `error`.
    pub fn publish_denying(&mut self, error: AmsError) {
        self.last_publish_epoch = self.handle.publish(
            DecisionSnapshot::new(Vec::new(), CombiningAlg::DenyOverrides).degraded(error),
        );
        self.serving = Serving::Denying;
    }

    /// Crashes the party: it stops serving and receiving until restarted.
    pub fn crash(&mut self) {
        self.up = false;
    }

    /// Restarts the party after a crash with **full state loss**: a fresh
    /// serving tier (the old snapshot and epochs are gone), no
    /// adopted version, recovering and denying until a refresh lands.
    pub fn restart(&mut self) {
        self.handle = PdpHandle::new();
        self.up = true;
        self.recovering = true;
        self.version = 0;
        self.serving = Serving::Denying;
        self.last_publish_epoch = 0;
        self.publish_denying(AmsError::Unavailable(
            "state lost in crash-restart".to_owned(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_policy::{Decision, Request};

    #[test]
    fn boots_denying_then_adopts_then_restarts_denying() {
        let mut p = SimParty::new(3, DegradedMode::DenyByDefault);
        let req = Request::new().subject("role", "auditor");
        assert!(p.recovering);
        let boot = p.handle().pin().decide(&req);
        assert_eq!(boot.decision, Decision::Deny);
        assert!(boot.error.is_some());
        assert_eq!(boot.epoch, p.last_publish_epoch);

        p.publish_healthy(2, crate::sim::scenario::coalition_policies(2));
        assert!(!p.recovering);
        assert_eq!(p.serving, Serving::Healthy { version: 2 });
        let healthy = p.handle().pin().decide(&req);
        assert_eq!(healthy.decision, Decision::Permit);
        assert!(healthy.error.is_none());
        assert_eq!(healthy.epoch, p.last_publish_epoch);

        p.crash();
        assert!(!p.up);
        p.restart();
        assert!(p.up && p.recovering);
        assert_eq!(p.version, 0);
        let lost = p.handle().pin().decide(&req);
        assert_eq!(lost.decision, Decision::Deny, "state loss must deny");
        assert_eq!(lost.epoch, p.last_publish_epoch);
    }
}
