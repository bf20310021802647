//! Protocol configuration.

use graphene_blockchain::OrderingScheme;

/// Tunables for a Graphene deployment.
///
/// Defaults mirror the paper's evaluation: `β = 239/240`, IBLTs
/// parameterized for a `1/240` decode-failure rate, CTOR ordering,
/// ping-pong decoding enabled.
#[derive(Clone, Copy, Debug)]
pub struct GrapheneConfig {
    /// β-assurance level for the Chernoff bounds (Theorems 1–3).
    pub beta: f64,
    /// Target IBLT decode-failure denominator (`1/x`) used when sizing
    /// IBLTs from the parameter table.
    pub iblt_rate_denom: u32,
    /// Transaction ordering scheme (CTOR ⇒ no ordering bytes, §6.2).
    pub ordering: OrderingScheme,
    /// Enable §4.2 ping-pong decoding in Protocol 2.
    pub pingpong: bool,
    /// Proactively prefill transactions never inv'd to the peer
    /// (Protocol 1 step 3 note).
    pub prefill: bool,
    /// FPR override used by the `m ≈ n` special case (§3.3.1; the paper
    /// uses 0.1 and reports 0.001–0.2 all work).
    pub special_case_fpr: f64,
    /// Extension (not in the paper): when Protocol 1's IBLT decodes
    /// *completely* but reveals missing transactions, fetch exactly those
    /// by short ID instead of running the full Protocol 2 round — the
    /// receiver already knows precisely what it lacks, so Bloom filter `R`
    /// and IBLT `J` add nothing. Off by default (paper-faithful).
    pub direct_fetch: bool,
}

impl Default for GrapheneConfig {
    fn default() -> Self {
        GrapheneConfig {
            beta: 239.0 / 240.0,
            iblt_rate_denom: 240,
            ordering: OrderingScheme::Ctor,
            pingpong: true,
            prefill: true,
            special_case_fpr: 0.1,
            direct_fetch: false,
        }
    }
}

impl GrapheneConfig {
    /// Sanity-check the configuration.
    pub fn validate(&self) -> Result<(), crate::GrapheneError> {
        if !(0.0 < self.beta && self.beta < 1.0) {
            return Err(crate::GrapheneError::BadConfig("beta must be in (0, 1)"));
        }
        if self.iblt_rate_denom == 0 {
            return Err(crate::GrapheneError::BadConfig("iblt_rate_denom must be positive"));
        }
        if !(0.0 < self.special_case_fpr && self.special_case_fpr < 1.0) {
            return Err(crate::GrapheneError::BadConfig("special_case_fpr must be in (0, 1)"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(GrapheneConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_beta() {
        let c = GrapheneConfig { beta: 1.0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = GrapheneConfig { beta: 0.0, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_rate_and_fpr() {
        let c = GrapheneConfig { iblt_rate_denom: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = GrapheneConfig { special_case_fpr: 1.5, ..Default::default() };
        assert!(c.validate().is_err());
    }
}
