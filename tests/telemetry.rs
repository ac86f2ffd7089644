//! End-to-end telemetry integration: one pipeline run must produce a
//! span tree covering all four stages, counters that reconcile across
//! stage boundaries, and a JSON document that parses back intact.

use disengage::core::pipeline::OcrMode;
use disengage::core::telemetry::reconcile;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::obs::json::Value;
use disengage::obs::Collector;
use disengage::ocr::NoiseModel;

fn config(scale: f64) -> RunConfig {
    RunConfig::new().with_corpus(CorpusConfig {
        seed: 0x5EED,
        scale,
    })
}

#[test]
fn span_tree_covers_all_four_stages() {
    let obs = Collector::new();
    let o = RunSession::new(config(0.05)).run_with(&obs).unwrap();
    let t = &o.telemetry;
    let root = t
        .spans
        .iter()
        .find(|s| s.name == "pipeline")
        .expect("root span");
    assert!(root.closed, "root span must close before the snapshot");
    // The root's children are the per-cell shard spans plus the merge
    // fold; the four stage spans nest inside each shard, and the tree
    // renders all of them.
    assert_eq!(root.children.len(), 18 + 1);
    let shard = &root.children[0];
    assert_eq!(shard.name, "shard");
    assert_eq!(shard.children.len(), 4);
    for stage in [
        "stage_i_corpus",
        "stage_i_ocr",
        "stage_ii_parse",
        "stage_iii_tag",
    ] {
        let s = shard.children.iter().find(|s| s.name == stage);
        let s = s.unwrap_or_else(|| panic!("missing {stage}"));
        assert!(s.closed, "{stage} still open");
        assert!(s.duration_s >= 0.0);
    }
    assert_eq!(root.children[18].name, "merge");
    let tree = t.render_tree();
    assert!(tree.contains("stage_iii_tag"), "{tree}");
}

#[test]
fn counters_reconcile_on_default_seed() {
    let obs = Collector::new();
    let o = RunSession::new(config(0.1)).run_with(&obs).unwrap();
    let t = &o.telemetry;

    // Records in = parsed + failed.
    assert_eq!(
        t.counter("parse.dis.lines"),
        t.counter("parse.dis.parsed") + t.counter("parse.dis.failed")
    );
    // Every parsed record got exactly one verdict, and the per-tag
    // counters partition them.
    assert_eq!(t.counter("nlp.tagged"), t.counter("parse.dis.parsed"));
    assert_eq!(t.counter("nlp.tagged"), t.counter_prefix_sum("nlp.tag."));
    // Passthrough digitization is lossless end to end.
    assert_eq!(
        t.counter("corpus.disengagements"),
        o.corpus.truth.disengagements().len() as u64
    );
    assert_eq!(
        t.counter("corpus.disengagements"),
        t.counter("parse.dis.lines")
    );
    // Per-manufacturer parse counters sum to the total.
    assert_eq!(
        t.counter_prefix_sum("parse.dis.parsed."),
        t.counter("parse.dis.parsed")
    );
    // And the checker agrees.
    assert_eq!(reconcile(t), Vec::<String>::new());

    // Distribution + rate metrics are populated.
    let margins = t
        .histogram("nlp.vote_margin")
        .expect("vote margins recorded");
    assert_eq!(margins.count, t.counter("nlp.tagged"));
    let unknown_rate = t.gauge("nlp.unknown_t_rate").expect("unknown rate set");
    assert!((0.0..=1.0).contains(&unknown_rate));
    assert_eq!(
        t.counter("nlp.unknown_t"),
        t.counter("nlp.tag.unknown_t"),
        "Unknown-T counted consistently"
    );
}

#[test]
fn simulated_ocr_records_quality_metrics() {
    let obs = Collector::new();
    let cfg = config(0.02).with_ocr(OcrMode::Simulated {
        noise: NoiseModel::heavy(),
        correct: true,
    });
    let o = RunSession::new(cfg).run_with(&obs).unwrap();
    let t = &o.telemetry;
    assert_eq!(t.gauge("pipeline.passthrough"), Some(0.0));
    // Every document Stage I generated was digitized.
    assert!(t.counter("corpus.documents") > 0);
    assert_eq!(t.counter("ocr.documents"), t.counter("corpus.documents"));
    let cer = t.histogram("ocr.cer").expect("per-document CER recorded");
    assert_eq!(cer.count, t.counter("ocr.documents"));
    let stats = o.ocr.expect("simulated mode reports stats");
    assert!((cer.mean - stats.mean_cer).abs() < 1e-9);
    // The default noise model produces errors; correction must fire.
    assert!(
        t.counter("ocr.corrections") > 0,
        "no correction hits recorded"
    );
    // Noise can drop lines, but the identities reconcile() checks in
    // simulated mode must still hold.
    assert_eq!(reconcile(t), Vec::<String>::new());
}

#[test]
fn telemetry_json_round_trips() {
    let obs = Collector::new();
    let o = RunSession::new(config(0.02)).run_with(&obs).unwrap();
    let text = o.telemetry.to_json();
    let v = Value::parse(&text).expect("telemetry JSON parses back");
    assert_eq!(v, o.telemetry.to_value());
    // Machine consumers navigate these paths (repro_metrics.json).
    let spans = v.get("spans").unwrap().as_arr().unwrap();
    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("pipeline"));
    let dur = spans[0].get("duration_s").unwrap().as_f64().unwrap();
    assert!(dur >= 0.0);
    let counters = v.get("counters").unwrap();
    assert_eq!(
        counters.get("corpus.disengagements").unwrap().as_f64(),
        Some(o.telemetry.counter("corpus.disengagements") as f64)
    );
}
