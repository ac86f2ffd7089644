//! Shard independence: the properties that make sharded streaming
//! execution safe. A single shard generated in isolation must be
//! byte-identical to its slice of the full-corpus run; an exclusion
//! filter must yield the exact complement; and the merge fold must not
//! depend on *when* shards finish, only on the enumeration order the
//! session absorbs them in.

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::PipelineOutcome;
use disengage::core::{CoreError, RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::obs::{Collector, RecordId};

fn small() -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale: 0.05,
    })
}

/// A lineage run of `config`: its outcome and, since record ids exist
/// only for lineage, the record ids its log names, in record order.
fn run(config: &RunConfig) -> (PipelineOutcome, Vec<RecordId>) {
    let obs = Collector::new().with_lineage(true);
    let outcome = RunSession::new(config.clone())
        .run_with(&obs)
        .expect("session runs");
    let ids = obs.provenance().record_ids();
    assert_eq!(ids.len(), outcome.database.disengagements().len());
    (outcome, ids)
}

/// Running one shard alone reproduces exactly its contiguous slice of
/// the full run: same record ids, same parsed records, same tags.
#[test]
fn single_shard_is_byte_identical_to_its_slice_of_the_full_run() {
    let (full, full_ids) = run(&small());
    let (single, single_ids) = run(&small().with_shards(vec!["waymo_2016".to_owned()]));
    assert!(
        !single_ids.is_empty(),
        "waymo_2016 must parse records at this scale"
    );

    let start = full_ids
        .iter()
        .position(|id| id == &single_ids[0])
        .expect("shard's first record appears in the full run");
    let end = start + single_ids.len();
    assert_eq!(
        single_ids,
        full_ids[start..end],
        "shard record ids are a contiguous slice of the full run"
    );
    assert_eq!(
        format!("{:?}", single.database.disengagements()),
        format!("{:?}", &full.database.disengagements()[start..end]),
        "shard records diverge from the full run's slice"
    );
    assert_eq!(
        format!("{:?}", single.tagged),
        format!("{:?}", &full.tagged[start..end]),
        "shard tags diverge from the full run's slice"
    );
}

/// `--shards=-waymo_2016` is the exact complement of
/// `--shards=waymo_2016`: together they partition the full run's
/// records, preserving order.
#[test]
fn exclusion_filter_is_the_exact_complement() {
    let (_, full) = run(&small());
    let (_, single) = run(&small().with_shards(vec!["waymo_2016".to_owned()]));
    let (_, rest) = run(&small().with_shards(vec!["-waymo_2016".to_owned()]));

    assert_eq!(single.len() + rest.len(), full.len());
    let mut recombined = full;
    let start = recombined
        .iter()
        .position(|id| id == &single[0])
        .expect("shard slice located");
    recombined.drain(start..start + single.len());
    assert_eq!(
        rest, recombined,
        "exclusion run must equal the full run minus the shard's slice"
    );
}

/// An unknown label is a loud, typed error — not a silent empty run.
#[test]
fn unknown_shard_label_is_rejected() {
    let obs = Collector::new().with_lineage(true);
    let err = RunSession::new(small().with_shards(vec!["delorean_1985".to_owned()]))
        .run_with(&obs)
        .expect_err("unknown label must fail");
    assert!(
        matches!(err, CoreError::UnknownShard { ref label } if label == "delorean_1985"),
        "{err:?}"
    );
}

/// The reduced (digest-only) entry point agrees with the full run —
/// it drops the bulk per shard, not the numbers — on the clean path,
/// under chaos (poisoned classifier, injected faults), and with an
/// exclusion filter.
#[test]
fn reduced_digest_matches_the_full_run() {
    let configs = [
        ("clean", small(), 18),
        ("chaos", small().with_chaos(FaultPlan::new(0.05, 7)), 18),
        (
            "filtered",
            small().with_shards(vec!["-waymo_2016".to_owned(), "-bosch_2016".to_owned()]),
            16,
        ),
    ];
    for (name, config, shards) in configs {
        let (full, _) = run(&config);
        let obs = Collector::new();
        let digest = RunSession::new(config)
            .run_reduced(&obs)
            .expect("reduced run");
        assert_eq!(digest.shards, shards, "{name}");
        assert_eq!(
            digest.documents as u64,
            full.telemetry.counter("corpus.documents"),
            "{name}"
        );
        assert_eq!(
            digest.disengagements,
            full.database.disengagements().len(),
            "{name}"
        );
        assert_eq!(digest.tagged, full.tagged.len(), "{name}");
        assert!(
            (digest.total_miles - full.corpus.truth.total_miles()).abs() < 1e-9,
            "{name}"
        );
        // The shared shard loop records the same stage counters either
        // way, the chaos dictionary poisoning included.
        let reduced = obs.report();
        if name == "chaos" {
            assert!(
                reduced.counter("chaos.injected.total") > 0,
                "chaos injected nothing"
            );
        }
        for counter in ["chaos.dict.dropped", "chaos.injected.total", "nlp.tagged"] {
            assert_eq!(
                reduced.counter(counter),
                full.telemetry.counter(counter),
                "{name}: {counter}"
            );
        }
    }
}

/// Counter and histogram folds are invariant to the order shards are
/// absorbed in, as long as every shard is absorbed exactly once. (The
/// session absorbs in enumeration order for the order-*sensitive*
/// parts — float sums, logs, spans; this test pins the order-free
/// core the merge fold's totals rest on.)
#[test]
fn counter_and_histogram_folds_are_absorption_order_invariant() {
    let build_shards = || {
        let outer = Collector::new();
        let shards: Vec<Collector> = (0..6u64)
            .map(|i| {
                let s = outer.shard();
                s.add("records", 10 + i);
                s.incr("shards.seen");
                // Dyadic samples: exactly representable, so even the
                // left-to-right float sum cannot depend on order.
                s.record("latency", 0.25 * (i + 1) as f64);
                s.record("latency", 0.5);
                s
            })
            .collect();
        (outer, shards)
    };

    let (forward, shards) = build_shards();
    for s in shards {
        forward.absorb(s);
    }
    let (reverse, shards) = build_shards();
    for s in shards.into_iter().rev() {
        reverse.absorb(s);
    }

    let a = forward.report();
    let b = reverse.report();
    assert_eq!(a.counter("records"), b.counter("records"));
    assert_eq!(a.counter("shards.seen"), 6);
    assert_eq!(b.counter("shards.seen"), 6);
    let ha = a.histogram("latency").expect("histogram recorded");
    let hb = b.histogram("latency").expect("histogram recorded");
    assert_eq!(ha.count, hb.count);
    assert_eq!(
        ha.sum.to_bits(),
        hb.sum.to_bits(),
        "dyadic sums must match bitwise"
    );
    assert_eq!(ha.min.to_bits(), hb.min.to_bits());
    assert_eq!(ha.max.to_bits(), hb.max.to_bits());
    assert_eq!(ha.p95.to_bits(), hb.p95.to_bits());
}

/// Byte-identity at any worker count survives the shard refactor:
/// `--jobs` bounds how many shards are in flight, and must never leak
/// into the output.
#[test]
fn sharded_run_is_byte_identical_at_any_jobs() {
    let (serial, serial_ids) = run(&small().with_jobs(1));
    let (wide, wide_ids) = run(&small().with_jobs(4));
    assert_eq!(
        format!("{:?}|{:?}|{:?}", serial.database, serial.tagged, serial_ids),
        format!("{:?}|{:?}|{:?}", wide.database, wide.tagged, wide_ids),
    );
    assert_eq!(
        serial.telemetry.clone().canonical().to_json(),
        wide.telemetry.clone().canonical().to_json(),
        "canonical telemetry must not depend on --jobs"
    );
}
