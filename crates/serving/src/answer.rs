//! Versioned answers and the update records pushed to subscribers.

use gpm_core::result::{AnswerDiff, RankedMatch};
use gpm_graph::NodeId;
use gpm_incremental::PatternId;
use serde::{Serialize, Value};

/// One pattern's answer as of a log offset: what [`query_at`] serves and
/// what the per-pattern history retains. `version` counts that pattern's
/// material changes (strictly increasing per pattern); `seq` is the log
/// offset whose batch produced it.
///
/// [`query_at`]: crate::AnswerService::query_at
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedAnswer {
    /// Log sequence this answer reflects.
    pub seq: u64,
    /// Per-pattern answer version (1 at registration).
    pub version: u64,
    /// The ranked answer.
    pub matches: Vec<RankedMatch>,
}

impl VersionedAnswer {
    /// Just the node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.matches.iter().map(|m| m.node).collect()
    }
}

impl Serialize for VersionedAnswer {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seq".into(), self.seq.to_value()),
            ("version".into(), self.version.to_value()),
            ("matches".into(), matches_to_value(&self.matches)),
        ])
    }
}

/// One push notification: the complete fresh answer (never a torn or
/// partial one), the log sequence it reflects, a strictly increasing
/// per-subscription `version`, and the change set against whatever this
/// subscriber saw last. Under queue overflow, intermediate updates are
/// coalesced away — `version` then jumps by the number of skipped
/// answers, and `diff` is rebased so it still reconciles the consumer's
/// last-seen answer with `topk`. How often that happened is one count:
/// per subscription via [`Subscription::coalesced`], and stack-wide as
/// the `gpm_serving_updates_coalesced_total` telemetry counter
/// ([`ServiceStats::updates_coalesced`]).
///
/// [`Subscription::coalesced`]: crate::Subscription::coalesced
/// [`ServiceStats::updates_coalesced`]: crate::ServiceStats::updates_coalesced
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerUpdate {
    /// The pattern this update concerns.
    pub pattern: PatternId,
    /// Per-subscription answer version (strictly increasing; gaps =
    /// coalesced updates).
    pub version: u64,
    /// Log sequence this answer reflects (monotonic per subscription).
    pub seq: u64,
    /// The complete ranked answer at `seq`.
    pub topk: Vec<RankedMatch>,
    /// What changed relative to the update the subscriber saw before.
    pub diff: AnswerDiff,
}

impl AnswerUpdate {
    /// Just the answer's node ids.
    pub fn topk_nodes(&self) -> Vec<NodeId> {
        self.topk.iter().map(|m| m.node).collect()
    }
}

impl Serialize for AnswerUpdate {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("pattern".into(), self.pattern.to_string().to_value()),
            ("version".into(), self.version.to_value()),
            ("seq".into(), self.seq.to_value()),
            ("topk".into(), matches_to_value(&self.topk)),
            ("entered".into(), self.diff.entered.to_value()),
            ("left".into(), self.diff.left.to_value()),
            ("reordered".into(), self.diff.reordered.to_value()),
        ])
    }
}

/// `[[node, δr], …]` (the orphan rule keeps us from implementing the
/// stub's `Serialize` for `gpm-core`'s `RankedMatch` directly).
pub(crate) fn matches_to_value(matches: &[RankedMatch]) -> Value {
    Value::Array(
        matches
            .iter()
            .map(|m| Value::Array(vec![m.node.to_value(), m.relevance.to_value()]))
            .collect(),
    )
}
