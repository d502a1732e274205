//! Subscriptions: per-consumer bounded queues with newest-wins coalescing.
//!
//! A push tier lives or dies by its slowest consumer. Every subscription
//! owns a bounded queue of [`AnswerUpdate`]s; when a producer would
//! overflow it, the **newest queued** update is replaced by one that
//! carries the latest complete answer and a **rebased diff** — the jump
//! from whatever the consumer will have seen before it straight to the
//! new answer. Consumers therefore always converge on the current answer
//! and can reconcile with a single diff; what they lose under pressure is
//! intermediate history (visible as a `version` gap), never consistency.
//! No queued update is ever mutated in place, so a torn answer cannot be
//! observed.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gpm_core::result::{AnswerDiff, RankedMatch};
use gpm_incremental::PatternId;

use crate::answer::AnswerUpdate;

/// What a subscription is notified about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// Material changes of the relevance-ranked top-k (`δr` order).
    Relevance,
    /// Material changes of the **diversified** top-k (the greedy
    /// bi-criteria selection with the pattern's configured `λ`).
    Diversified,
}

/// Stable handle of a subscription. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub(crate) u64);

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

pub(crate) struct SubQueue {
    updates: VecDeque<AnswerUpdate>,
    capacity: usize,
    /// The answer of the update most recently handed to the consumer —
    /// the rebase target when the whole queue coalesces down to one
    /// pending update.
    delivered: Vec<RankedMatch>,
    /// Overflow coalesces: each evicted the newest queued update (an
    /// answer the consumer never saw) and rebased the fresh one's diff.
    coalesced: u64,
    closed: bool,
}

/// What one [`SubShared::push`] did to the queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PushOutcome {
    /// Whether the push overflowed the queue and coalesced newest-wins.
    pub(crate) coalesced: bool,
    /// Queue depth right after the push — the fan-out loop feeds the
    /// `gpm_serving_max_queue_depth` gauge from this.
    pub(crate) depth: usize,
}

pub(crate) struct SubShared {
    queue: Mutex<SubQueue>,
    ready: Condvar,
}

impl SubShared {
    pub(crate) fn new(capacity: usize) -> Arc<Self> {
        Arc::new(SubShared {
            queue: Mutex::new(SubQueue {
                updates: VecDeque::new(),
                capacity: capacity.max(1),
                delivered: Vec::new(),
                coalesced: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Enqueues `update`, coalescing on overflow: the newest queued
    /// update is dropped and the fresh one takes its place with a diff
    /// rebased onto the answer preceding the dropped one — so the
    /// consumer's reconciliation chain stays gapless even though its
    /// history is not.
    pub(crate) fn push(&self, mut update: AnswerUpdate) -> PushOutcome {
        let mut q = self.lock();
        if q.closed {
            return PushOutcome { coalesced: false, depth: q.updates.len() };
        }
        let mut coalesced = false;
        if q.updates.len() == q.capacity {
            q.updates.pop_back();
            let base: &[RankedMatch] = q.updates.back().map_or(&q.delivered, |u| &u.topk);
            update.diff = AnswerDiff::between(base, &update.topk);
            q.coalesced += 1;
            coalesced = true;
        }
        q.updates.push_back(update);
        let depth = q.updates.len();
        drop(q);
        self.ready.notify_all();
        PushOutcome { coalesced, depth }
    }

    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Point-in-time `(depth, capacity)` of the queue — the health
    /// model's saturation probe (`depth == capacity` means the next push
    /// will coalesce).
    pub(crate) fn saturation(&self) -> (usize, usize) {
        let q = self.lock();
        (q.updates.len(), q.capacity)
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, SubQueue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A consumer's handle on one pattern's answer stream. Cheap to move to a
/// consumer thread; dropping it does **not** cancel the subscription
/// (use [`AnswerService::unsubscribe`]).
///
/// [`AnswerService::unsubscribe`]: crate::AnswerService::unsubscribe
pub struct Subscription {
    pub(crate) id: SubscriptionId,
    pub(crate) pattern: PatternId,
    pub(crate) mode: NotifyMode,
    pub(crate) shared: Arc<SubShared>,
}

impl Subscription {
    /// This subscription's id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The pattern whose answers this subscription follows.
    pub fn pattern(&self) -> PatternId {
        self.pattern
    }

    /// What this subscription is notified about.
    pub fn mode(&self) -> NotifyMode {
        self.mode
    }

    /// Takes the oldest pending update without blocking.
    pub fn try_recv(&self) -> Option<AnswerUpdate> {
        let mut q = self.shared.lock();
        let update = q.updates.pop_front()?;
        q.delivered = update.topk.clone();
        Some(update)
    }

    /// Blocks up to `timeout` for the next update. `None` on timeout or
    /// once the subscription is closed and drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<AnswerUpdate> {
        let deadline = Instant::now() + timeout;
        let mut q = self.shared.lock();
        loop {
            if let Some(update) = q.updates.pop_front() {
                q.delivered = update.topk.clone();
                return Some(update);
            }
            if q.closed {
                return None;
            }
            let now = Instant::now();
            let left = deadline.checked_duration_since(now)?;
            let (guard, _) =
                self.shared.ready.wait_timeout(q, left).unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }

    /// Takes every pending update.
    pub fn drain(&self) -> Vec<AnswerUpdate> {
        let mut q = self.shared.lock();
        let out: Vec<AnswerUpdate> = q.updates.drain(..).collect();
        if let Some(last) = out.last() {
            q.delivered = last.topk.clone();
        }
        out
    }

    /// Number of updates waiting.
    pub fn pending(&self) -> usize {
        self.shared.lock().updates.len()
    }

    /// Updates merged away by overflow coalescing so far. Each coalesce
    /// evicted one queued update — an intermediate answer the consumer
    /// never received — and rebased the fresh update's diff so the
    /// reconciliation chain stayed gapless (also counted stack-wide as
    /// `gpm_serving_updates_coalesced_total`).
    pub fn coalesced(&self) -> u64 {
        self.shared.lock().coalesced
    }

    /// `true` once the service dropped this subscription (pending updates
    /// remain readable).
    pub fn is_closed(&self) -> bool {
        self.shared.lock().closed
    }
}
