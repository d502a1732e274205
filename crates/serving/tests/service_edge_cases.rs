//! Edge cases of the serving layer: backpressure coalescing, delta-log
//! persistence and replay determinism, `query_at` semantics, subscription
//! lifecycle, and the threaded service loop.

use std::time::Duration;

use gpm_core::result::AnswerDiff;
use gpm_datagen::update_stream::{update_stream, UpdateStreamConfig};
use gpm_graph::builder::graph_from_parts;
use gpm_graph::{DiGraph, GraphDelta};
use gpm_incremental::IncrementalConfig;
use gpm_pattern::builder::label_pattern;
use gpm_pattern::Pattern;
use gpm_serving::{
    AnswerService, DeltaLog, NotifyMode, ServiceConfig, ServiceHandle, ServingError,
};

/// Authors (label 0) citing papers (label 1): the workhorse fixture. Edge
/// `(author, paper)` additions move δr one at a time.
fn fixture() -> (DiGraph, Pattern) {
    let g = graph_from_parts(&[0, 0, 1, 1, 1], &[(0, 2), (1, 2)]).unwrap();
    let q = label_pattern(&[0, 1], &[(0, 1)], 0).unwrap();
    (g, q)
}

fn tiny_cfg(queue_capacity: usize) -> ServiceConfig {
    ServiceConfig { queue_capacity, ..ServiceConfig::default() }
}

#[test]
fn overflow_coalesces_newest_wins_never_torn() {
    let (g, q) = fixture();
    let mut svc = AnswerService::new(&g, tiny_cfg(1));
    let sub = svc.subscribe(q, IncrementalConfig::new(3), NotifyMode::Relevance).unwrap();
    let initial = sub.try_recv().unwrap();
    assert_eq!(initial.topk_nodes(), vec![0, 1]);

    // Four answer-changing batches against a capacity-1 queue the
    // consumer never drains: three coalesce away.
    svc.ingest(&GraphDelta::new().add_edge(1, 3)).unwrap(); // 1 ahead
    svc.ingest(&GraphDelta::new().add_edge(0, 3)).unwrap(); // tie
    svc.ingest(&GraphDelta::new().add_edge(0, 4)).unwrap(); // 0 ahead
    svc.ingest(&GraphDelta::new().add_edge(1, 4)).unwrap(); // tie again
    assert_eq!(sub.pending(), 1, "bounded queue holds exactly one update");
    // Each coalesce evicted one queued update and rebased the fresh
    // one's diff — one count, per subscription and in the service stats.
    assert_eq!(sub.coalesced(), 3);
    assert_eq!(svc.stats().updates_coalesced, 3);

    let update = sub.try_recv().unwrap();
    // Newest wins: the one retained update is the *latest* answer…
    assert_eq!(update.seq, 4);
    assert_eq!(update.topk, svc.current(update.pattern).unwrap().matches);
    // …with version revealing how many answers were skipped…
    assert_eq!(update.version, initial.version + 4);
    // …and the diff rebased onto what this consumer actually saw last
    // (the initial answer), not onto a lost intermediate.
    assert_eq!(update.diff, AnswerDiff::between(&initial.topk, &update.topk));
    assert!(sub.try_recv().is_none());

    // After draining, the next change is delivered normally again.
    svc.ingest(&GraphDelta::new().remove_edge(0, 4).remove_edge(0, 3)).unwrap();
    let next = sub.try_recv().unwrap();
    assert_eq!(next.version, update.version + 1);
    assert_eq!(next.diff, AnswerDiff::between(&update.topk, &next.topk));
}

#[test]
fn delta_log_roundtrips_and_replays() {
    let (g, _) = fixture();
    let mut log = DeltaLog::new(&g);
    assert_eq!(log.append(GraphDelta::new().add_edge(1, 3).set_attr(2, "views", 9i64)), 1);
    assert_eq!(log.append(GraphDelta::new().add_node(1).remove_node(0)), 2);
    assert_eq!(log.head_seq(), 2);

    // JSON-lines round-trip: entries, offsets and graphs all survive.
    let text = log.to_json_lines();
    assert_eq!(text.lines().count(), 3, "header + one line per batch");
    let back = DeltaLog::from_json_lines(&text).unwrap();
    assert_eq!(back.base_seq(), 0);
    assert_eq!(back.entries(), log.entries());
    assert_eq!(back.to_json_lines(), text, "re-serialization is byte-identical");

    // graph_at replays prefixes; compaction trims them away.
    let at1 = log.graph_at(1).unwrap();
    assert!(at1.has_edge(1, 3));
    assert_eq!(at1.node_count(), 5);
    let at2 = log.graph_at(2).unwrap();
    assert_eq!(at2.node_count(), 6);
    assert!(matches!(log.graph_at(9), Err(ServingError::OffsetInFuture { head: 2, .. })));

    log.compact_to(1).unwrap();
    assert_eq!(log.base_seq(), 1);
    assert_eq!(log.len(), 1);
    assert!(matches!(log.graph_at(0), Err(ServingError::OffsetCompacted { .. })));
    assert!(matches!(log.entries_after(0), Err(ServingError::OffsetCompacted { .. })));
    assert_eq!(log.entries_after(1).unwrap().len(), 1);
    let at2b = log.graph_at(2).unwrap();
    assert_eq!(at2b.node_count(), at2.node_count());
    assert_eq!(at2b.edge_count(), at2.edge_count());

    // Persistence through a file.
    let dir = std::env::temp_dir().join("gpm_serving_log_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.jsonl");
    log.save(&path).unwrap();
    let loaded = DeltaLog::load(&path).unwrap();
    assert_eq!(loaded.to_json_lines(), log.to_json_lines());
    std::fs::remove_file(path).ok();

    // Corruption is rejected, not misread.
    assert!(DeltaLog::from_json_lines("").is_err());
    assert!(DeltaLog::from_json_lines("{\"not\":\"a log\"}").is_err());
    let mut tampered: Vec<&str> = text.lines().collect();
    tampered.remove(1); // drop seq 1: the log is no longer contiguous
    assert!(DeltaLog::from_json_lines(&tampered.join("\n")).is_err());
}

/// Satellite: replaying the log from offset 0 into a fresh service
/// reproduces **byte-identical** versioned answers — same seqs, same
/// versions, same matches, at every offset, rendered to the same JSON.
#[test]
fn replay_from_zero_is_byte_identical() {
    let make_patterns = || -> Vec<Pattern> {
        vec![
            label_pattern(&[0, 1], &[(0, 1)], 0).unwrap(),
            label_pattern(&[1], &[], 0).unwrap(),
            label_pattern(&[0, 1, 2], &[(0, 1), (1, 2)], 0).unwrap(),
        ]
    };
    let g = graph_from_parts(&[0, 0, 1, 1, 2, 2], &[(0, 2), (1, 3), (2, 4), (3, 5)]).unwrap();

    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let subs: Vec<_> = make_patterns()
        .into_iter()
        .map(|q| svc.subscribe(q, IncrementalConfig::new(3), NotifyMode::Relevance).unwrap())
        .collect();
    let stream = update_stream(&g, &UpdateStreamConfig::new(7, 4, 0xB0B).with_attr_churn(0.3));
    for delta in stream.iter() {
        svc.ingest(delta).unwrap();
    }

    // Crash: only the serialized log survives.
    let persisted = svc.log().to_json_lines();

    // Recovery: fresh service from the log's base, same subscriptions,
    // catch up from the parsed log.
    let log = DeltaLog::from_json_lines(&persisted).unwrap();
    let mut recovered =
        AnswerService::at_offset(log.base(), log.base_seq(), ServiceConfig::default());
    let rsubs: Vec<_> = make_patterns()
        .into_iter()
        .map(|q| recovered.subscribe(q, IncrementalConfig::new(3), NotifyMode::Relevance).unwrap())
        .collect();
    assert_eq!(recovered.catch_up(&log).unwrap(), stream.len() as u64);
    assert_eq!(recovered.seq(), svc.seq());

    // Byte-identical versioned answers at every offset, every pattern.
    for (a, b) in subs.iter().zip(&rsubs) {
        for seq in 0..=svc.seq() {
            let va = svc.query_at(a.pattern(), seq).unwrap();
            let vb = recovered.query_at(b.pattern(), seq).unwrap();
            let ja = serde_json::to_string(&va).unwrap();
            let jb = serde_json::to_string(&vb).unwrap();
            assert_eq!(ja, jb, "versioned answer diverged at seq {seq}");
        }
    }
    // And the recovered log re-serializes to the same bytes.
    assert_eq!(recovered.log().to_json_lines(), persisted);
}

#[test]
fn query_at_serves_the_answer_timeline() {
    let (g, q) = fixture();
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let sub = svc.subscribe(q, IncrementalConfig::new(2), NotifyMode::Relevance).unwrap();
    let id = sub.pattern();
    let v1 = svc.current(id).unwrap();
    assert_eq!((v1.seq, v1.version), (0, 1));

    svc.ingest(&GraphDelta::new().add_node(5)).unwrap(); // seq 1: no change
    svc.ingest(&GraphDelta::new().add_edge(1, 3)).unwrap(); // seq 2: change
    svc.ingest(&GraphDelta::new().add_node(5)).unwrap(); // seq 3: no change
    svc.ingest(&GraphDelta::new().add_edge(0, 3).add_edge(0, 4)).unwrap(); // seq 4: change

    // Unchanged offsets are covered by the preceding change point.
    assert_eq!(svc.query_at(id, 0).unwrap(), v1);
    assert_eq!(svc.query_at(id, 1).unwrap(), v1);
    let v2 = svc.query_at(id, 2).unwrap();
    assert_eq!((v2.seq, v2.version), (2, 2));
    assert_eq!(svc.query_at(id, 3).unwrap(), v2);
    let v3 = svc.query_at(id, 4).unwrap();
    assert_eq!((v3.seq, v3.version), (4, 3));
    assert_eq!(svc.current(id).unwrap(), v3);

    // The push stream saw exactly the change points.
    let versions: Vec<u64> = sub.drain().iter().map(|u| u.version).collect();
    assert_eq!(versions, vec![1, 2, 3]);

    assert!(matches!(svc.query_at(id, 9), Err(ServingError::OffsetInFuture { .. })));
    let ghost = {
        let other = svc
            .subscribe(
                label_pattern(&[2], &[], 0).unwrap(),
                IncrementalConfig::new(1),
                NotifyMode::Relevance,
            )
            .unwrap();
        let ghost = other.pattern();
        svc.unsubscribe(&other);
        ghost
    };
    assert!(matches!(svc.query_at(ghost, 4), Err(ServingError::UnknownPattern(_))));
}

#[test]
fn answer_history_retention_is_bounded() {
    let (g, q) = fixture();
    let cfg = ServiceConfig { retain_answers: 2, ..ServiceConfig::default() };
    let mut svc = AnswerService::new(&g, cfg);
    let sub = svc.subscribe(q, IncrementalConfig::new(3), NotifyMode::Relevance).unwrap();
    let id = sub.pattern();

    svc.ingest(&GraphDelta::new().add_edge(1, 3)).unwrap(); // v2 @ seq 1
    svc.ingest(&GraphDelta::new().add_edge(1, 4)).unwrap(); // v3 @ seq 2
    svc.ingest(&GraphDelta::new().add_edge(0, 3)).unwrap(); // v4 @ seq 3 — v1, v2 evicted

    assert!(matches!(svc.query_at(id, 0), Err(ServingError::OffsetCompacted { .. })));
    assert!(matches!(
        svc.query_at(id, 1),
        Err(ServingError::OffsetCompacted { retained_from: 2, .. })
    ));
    assert_eq!(svc.query_at(id, 2).unwrap().version, 3);
    assert_eq!(svc.query_at(id, 3).unwrap().version, 4);
}

#[test]
fn k_zero_diversified_subscription_stays_empty() {
    let (g, q) = fixture();
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let sub = svc.subscribe(q, IncrementalConfig::new(0), NotifyMode::Diversified).unwrap();
    let bootstrap = sub.try_recv().expect("bootstrap answer");
    assert!(bootstrap.topk.is_empty(), "k = 0 answered {:?}", bootstrap.topk_nodes());
    // A delta that moves every δr cannot change an empty answer.
    svc.ingest(&GraphDelta::new().add_edge(1, 3)).unwrap();
    assert!(sub.try_recv().is_none(), "no material change, no update");
    assert!(svc.current(sub.pattern()).unwrap().matches.is_empty());
}

#[test]
fn unsubscribe_closes_queues_and_releases_patterns() {
    let (g, q) = fixture();
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let first = svc.subscribe(q, IncrementalConfig::new(2), NotifyMode::Relevance).unwrap();
    let id = first.pattern();
    // A second consumer shares the same maintained pattern.
    let second = svc.attach(id, NotifyMode::Diversified).unwrap();
    assert_eq!(svc.subscriptions(), 2);
    assert_eq!(svc.registry().len(), 1, "one maintained state for two consumers");
    assert_eq!(second.try_recv().unwrap().seq, 0);

    svc.ingest(&GraphDelta::new().add_edge(1, 3)).unwrap();
    assert!(svc.unsubscribe(&first));
    assert!(!svc.unsubscribe(&first), "double unsubscribe is a no-op");
    assert!(first.is_closed());
    assert!(first.try_recv().is_some(), "pending updates remain readable after close");
    assert_eq!(svc.current(id).unwrap().version, 2, "pattern still serving its other consumer");
    let slo_detail = |svc: &AnswerService| {
        svc.health().components.into_iter().find(|c| c.name == "slo").unwrap().detail
    };
    assert_eq!(slo_detail(&svc), "1 patterns within budget");

    assert!(svc.unsubscribe(&second));
    assert_eq!(svc.registry().len(), 0, "last unsubscribe deregisters");
    assert!(matches!(svc.current(id), Err(ServingError::UnknownPattern(_))));
    assert!(second.is_closed());
    assert_eq!(slo_detail(&svc), "0 patterns within budget", "the SLO tracker went too");

    // The pattern's record went with its last subscriber: the same shape
    // subscribed again is a new pattern whose history starts over.
    let again =
        svc.subscribe(fixture().1, IncrementalConfig::new(2), NotifyMode::Relevance).unwrap();
    assert_ne!(again.pattern(), id);
    assert_eq!(svc.current(again.pattern()).unwrap().version, 1);
    assert_eq!(again.try_recv().unwrap().version, 1);
}

#[test]
fn threaded_service_loop_delivers_and_shuts_down() {
    let (g, q) = fixture();
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let sub = svc.subscribe(q, IncrementalConfig::new(2), NotifyMode::Relevance).unwrap();
    assert!(sub.try_recv().is_some());

    let handle = ServiceHandle::spawn(svc);

    // A consumer thread blocks on the subscription while the producer
    // submits asynchronously.
    let consumer = std::thread::spawn(move || {
        let update = sub.recv_timeout(Duration::from_secs(10)).expect("update arrives");
        (update.seq, update.topk_nodes(), sub)
    });
    handle.submit(GraphDelta::new().add_node(7)); // label 7: no change, no wakeup
    handle.submit(GraphDelta::new().add_edge(1, 3));
    let (seq, nodes, sub) = consumer.join().unwrap();
    assert_eq!(seq, 2);
    assert_eq!(nodes, vec![1, 0]);

    // Control plane through the loop: subscribe a second consumer live.
    let pid = sub.pattern();
    let late = handle.with(move |svc| svc.attach(pid, NotifyMode::Relevance).unwrap());
    assert_eq!(late.try_recv().unwrap().seq, 2);

    // Invalid batches are counted, not fatal.
    handle.submit(GraphDelta::new().add_edge(0, 99));
    let report = handle.ingest(GraphDelta::new().add_edge(0, 3)).unwrap();
    assert_eq!(report.seq, 3, "the rejected batch consumed no sequence number");

    let svc = handle.shutdown();
    assert_eq!(svc.stats().ingest_errors, 1);
    assert_eq!(svc.stats().batches, 3);
    assert_eq!(svc.seq(), 3);
}

/// Satellite: `save` appends only the entries past the last persisted
/// seq — a repeat save must not rewrite the whole file — while the file
/// contents stay byte-identical to a wholesale serialization. Compaction
/// (and a fresh path, and a deleted file) force a full rewrite.
#[test]
fn save_appends_past_the_last_persisted_seq() {
    let (g, _) = fixture();
    let dir = std::env::temp_dir().join("gpm_serving_append_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("append.jsonl");
    std::fs::remove_file(&path).ok();

    let mut log = DeltaLog::new(&g);
    log.append(GraphDelta::new().add_edge(0, 3));
    log.save(&path).unwrap();
    let after_first = std::fs::read_to_string(&path).unwrap();
    assert_eq!(after_first, log.to_json_lines());

    // Sentinel: corrupt the first line in a way a rewrite would undo but
    // an append preserves. (The header keeps its length.)
    let mut tampered = after_first.clone().into_bytes();
    tampered[2] = b'X';
    std::fs::write(&path, &tampered).unwrap();

    log.append(GraphDelta::new().add_edge(1, 3).set_attr(2, "views", 4i64));
    log.append(GraphDelta::new().add_node(1));
    log.save(&path).unwrap();
    let after_second = std::fs::read_to_string(&path).unwrap();
    assert!(
        after_second.as_bytes()[2] == b'X',
        "second save rewrote the file instead of appending"
    );
    // Modulo the sentinel, the appended file is byte-identical to a
    // wholesale write — and still parses into an equal log.
    let mut expect = log.to_json_lines().into_bytes();
    expect[2] = b'X';
    assert_eq!(after_second.into_bytes(), expect);

    // An up-to-date log's save appends nothing (and succeeds).
    log.save(&path).unwrap();
    let mut fixed = std::fs::read_to_string(&path).unwrap().into_bytes();
    fixed[2] = after_first.as_bytes()[2];
    let reloaded = DeltaLog::from_json_lines(std::str::from_utf8(&fixed).unwrap()).unwrap();
    assert_eq!(reloaded.entries(), log.entries());
    assert_eq!(reloaded.base_seq(), log.base_seq());

    // Compaction invalidates the persisted prefix: the next save
    // rewrites wholesale (the sentinel disappears).
    log.compact_to(2).unwrap();
    log.append(GraphDelta::new().add_edge(0, 4));
    log.save(&path).unwrap();
    let after_compact = std::fs::read_to_string(&path).unwrap();
    assert_eq!(after_compact, log.to_json_lines(), "compaction forces a rewrite");
    let reloaded = DeltaLog::load(&path).unwrap();
    assert_eq!(reloaded.base_seq(), 2);
    assert_eq!(reloaded.entries(), log.entries());

    // A deleted file is rewritten from scratch, not blindly appended to.
    std::fs::remove_file(&path).unwrap();
    log.append(GraphDelta::new().remove_edge(0, 4));
    log.save(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), log.to_json_lines());

    // A different path gets the full file too.
    let other = dir.join("other.jsonl");
    std::fs::remove_file(&other).ok();
    log.save(&other).unwrap();
    assert_eq!(std::fs::read_to_string(&other).unwrap(), log.to_json_lines());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&other).ok();
}

/// A crash during an appending save can leave a partial last line, cut
/// anywhere — inside a multi-byte character too. Loading such a file
/// gives the log as of the previous save; the last entry survives only
/// when all its JSON reached the file. A torn header, and a corrupt line
/// that ends in `\n`, are still rejected.
#[test]
fn a_torn_final_line_loads_as_the_previous_save() {
    let (g, _) = fixture();
    let dir = std::env::temp_dir().join("gpm_serving_torn_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("torn_{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();

    let mut log = DeltaLog::new(&g);
    log.append(GraphDelta::new().add_edge(1, 3).set_attr(2, "views", 9i64));
    log.save(&path).unwrap();
    let previous = log.to_json_lines();
    log.append(GraphDelta::new().set_attr(3, "título", "ünïcødé ✓ 漢字").add_edge(0, 3));
    log.save(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    assert_eq!(full, log.to_json_lines().into_bytes());

    let start = previous.len();
    let end = full.len() - 1; // the final `\n`
    assert!(std::str::from_utf8(&full[start..end]).unwrap().chars().any(|c| c.len_utf8() > 1));
    for cut in start..end {
        std::fs::write(&path, &full[..cut]).unwrap();
        let loaded = DeltaLog::load(&path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(loaded.to_json_lines(), previous, "cut at {cut}");
    }
    // Every JSON byte of the last entry made it: only the `\n` is missing.
    std::fs::write(&path, &full[..end]).unwrap();
    assert_eq!(DeltaLog::load(&path).unwrap().to_json_lines(), log.to_json_lines());

    // A torn header is not a log; a whole one is a log with no entries.
    let header_end = previous.find('\n').unwrap();
    for cut in [1, header_end / 2, header_end - 1] {
        std::fs::write(&path, &full[..cut]).unwrap();
        assert!(DeltaLog::load(&path).is_err(), "header cut at {cut}");
    }
    std::fs::write(&path, &full[..header_end]).unwrap();
    assert!(DeltaLog::load(&path).unwrap().is_empty());
    // A corrupt line that ends in `\n` was written whole: rejected.
    let mut corrupt = full.clone();
    corrupt[start + 1] = b'X';
    std::fs::write(&path, &corrupt).unwrap();
    assert!(DeltaLog::load(&path).is_err());
    // So is an unterminated line that parses but breaks the sequence.
    let last = std::str::from_utf8(&full[start..end]).unwrap();
    assert!(last.starts_with("{\"seq\":2,"), "{last}");
    std::fs::write(&path, previous.clone() + &last.replacen("\"seq\":2", "\"seq\":5", 1)).unwrap();
    assert!(DeltaLog::load(&path).is_err());
    std::fs::remove_file(&path).ok();
}

/// The service-level checkpoint call: the persistence cursor lives with
/// the service's owned log, so back-to-back `save_log`s append rather
/// than rewrite (same sentinel trick as the log-level test).
#[test]
fn service_save_log_appends_between_ingests() {
    let (g, q) = fixture();
    let dir = std::env::temp_dir().join("gpm_serving_svc_append_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("svc.jsonl");
    std::fs::remove_file(&path).ok();

    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let _sub = svc.subscribe(q, IncrementalConfig::new(3), NotifyMode::Relevance).unwrap();
    svc.ingest(&GraphDelta::new().add_edge(1, 3)).unwrap();
    svc.save_log(&path).unwrap();

    let mut tampered = std::fs::read_to_string(&path).unwrap().into_bytes();
    tampered[2] = b'X';
    std::fs::write(&path, &tampered).unwrap();

    svc.ingest(&GraphDelta::new().add_edge(1, 4)).unwrap();
    svc.save_log(&path).unwrap();
    let after = std::fs::read_to_string(&path).unwrap();
    assert_eq!(after.as_bytes()[2], b'X', "second save_log must append, not rewrite");
    assert_eq!(after.lines().count(), 3, "header + two ingested batches");

    // And a clone of the log does not inherit the cursor: its first save
    // rewrites (two writers must never append to one file).
    let mut cloned = svc.log().clone();
    cloned.save(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), cloned.to_json_lines());
    std::fs::remove_file(&path).ok();
}

#[test]
fn bounds_off_subscription_reports_off_and_answers_agree() {
    // Bound pruning is a per-subscription choice, observable through the
    // pattern introspection surface. Answers are unaffected either way
    // (bounds are a pure pruning accelerator).
    let (g, q) = fixture();
    let mut unbounded = IncrementalConfig::new(2);
    unbounded.bounds = false;
    let mut svc = AnswerService::new(&g, ServiceConfig::default());
    let sub = svc.subscribe(q.clone(), unbounded, NotifyMode::Relevance).unwrap();
    let info = svc.registry().pattern_info(sub.pattern()).unwrap();
    assert_eq!(info.bound_mode, "off");

    // The default subscription prunes.
    let mut plain = AnswerService::new(&g, ServiceConfig::default());
    let sub2 = plain.subscribe(q, IncrementalConfig::new(2), NotifyMode::Relevance).unwrap();
    let info2 = plain.registry().pattern_info(sub2.pattern()).unwrap();
    assert_eq!(info2.bound_mode, "per-component");

    // Same stream, same answers.
    for delta in [GraphDelta::new().add_edge(0, 3), GraphDelta::new().add_edge(1, 4)] {
        svc.ingest(&delta).unwrap();
        plain.ingest(&delta).unwrap();
        assert_eq!(
            svc.current(sub.pattern()).unwrap().matches,
            plain.current(sub2.pattern()).unwrap().matches,
        );
    }
}
