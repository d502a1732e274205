//! The reference side of the registry's differential suites, shared by
//! `equivalence.rs`, `registry_differential.rs` and gpm-bench's
//! `bulk_batches.rs`.

use gpm_pattern::{Pattern, PatternBuilder, Predicate};

/// `q` with every node predicate `p` rewritten as the one-disjunct
/// `Or([p])`: the same candidates, matches and answers, but no node
/// implies a label any more, so the registry's shared index cannot prove
/// any structural op irrelevant and dispatches them all. A registry of
/// this twin runs the same refresh as one of `q` with nothing skipped —
/// the reference that isolates the index's skip logic.
pub fn undispatchable(q: &Pattern) -> Pattern {
    let mut b = PatternBuilder::new();
    for u in q.nodes() {
        b.node(format!("u{u}"), Predicate::Or(vec![q.predicate(u).clone()]));
    }
    for (u, v) in q.edges() {
        b.edge(u, v).unwrap();
    }
    b.output(q.output()).unwrap();
    b.build().unwrap()
}
