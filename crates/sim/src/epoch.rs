//! Cross-domain quiescence query.
//!
//! The two ISA domains of a fused machine only observe each other
//! through a handful of channels: message-ring deliveries, IPIs,
//! snoop-visible cache lines and DSM page transfers. [`EpochHorizon`]
//! is a kernel layer's answer to "is any of those couplings live right
//! now?". Nothing in the simulator acts on it; it is kept as a
//! diagnostic query because the repo benchmark's `OsSystem` forwarder
//! implements it by delegation.

/// Answer to "are the two domains decoupled right now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochHorizon {
    /// No cross-domain event is pending.
    Clear,
    /// A cross-domain coupling is live (undelivered message bytes,
    /// replicated DSM pages, an armed watchdog mid-exchange); the
    /// static string names the channel.
    Blocked(&'static str),
}

impl EpochHorizon {
    /// True when no channel couples the domains.
    #[must_use]
    pub fn is_clear(self) -> bool {
        matches!(self, EpochHorizon::Clear)
    }

    /// Combines two horizons: blocked wins (first reason kept).
    #[must_use]
    pub fn and(self, other: EpochHorizon) -> EpochHorizon {
        match self {
            EpochHorizon::Clear => other,
            blocked => blocked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_combines_blocked_first() {
        let clear = EpochHorizon::Clear;
        let blocked = EpochHorizon::Blocked("msg");
        assert!(clear.is_clear());
        assert_eq!(clear.and(blocked), blocked);
        assert_eq!(blocked.and(EpochHorizon::Blocked("dsm")), blocked);
        assert_eq!(clear.and(clear), clear);
    }
}
