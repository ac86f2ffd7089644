//! Cross-stage integration: STPA overlay over live tagging results,
//! dictionary-learning tooling (test support in
//! `crates/nlp/tests/learn/`) against the corpus, and the CSV export of
//! analysis artifacts.

#[path = "../crates/nlp/tests/learn/ngram.rs"]
mod ngram;
#[path = "../crates/nlp/tests/learn/tfidf.rs"]
mod tfidf;

use disengage::core::{tables, RunConfig, RunSession};
use disengage::corpus::CorpusConfig;
use disengage::dataframe::csv;
use disengage::nlp::FaultTag;
use disengage::stpa::overlay::overlay_for;
use disengage::stpa::{Component, ControlLoop, LoopId};
use ngram::top_ngrams;
use tfidf::TfIdf;

fn outcome() -> disengage::core::PipelineOutcome {
    RunSession::new(RunConfig::new().with_corpus(CorpusConfig {
        seed: 88,
        scale: 0.06,
    }))
    .run()
    .expect("pipeline runs")
}

#[test]
fn every_tagged_disengagement_localizes_on_the_control_structure() {
    let o = outcome();
    let mut unknown = 0usize;
    for t in &o.tagged {
        let overlay = overlay_for(t.assignment.tag);
        if t.assignment.tag == FaultTag::UnknownT {
            unknown += 1;
            assert!(overlay.components.is_empty());
        } else {
            assert!(
                !overlay.components.is_empty(),
                "{} localizes nowhere",
                t.assignment.tag
            );
            assert!(!overlay.loops.is_empty());
        }
    }
    // Unknowns exist (Tesla) but are a small minority overall.
    assert!(unknown > 0);
    assert!(unknown < o.tagged.len() / 5);
}

#[test]
fn perception_faults_dominate_cl1_and_cl2() {
    // The paper's conclusion: the perception/planning loops carry the
    // bulk of the failures. Count tags touching each loop.
    let o = outcome();
    let mut per_loop = std::collections::BTreeMap::new();
    for t in &o.tagged {
        for l in overlay_for(t.assignment.tag).loops {
            *per_loop.entry(l).or_insert(0usize) += 1;
        }
    }
    let cl1 = per_loop.get(&LoopId::Cl1).copied().unwrap_or(0);
    let cl3 = per_loop.get(&LoopId::Cl3).copied().unwrap_or(0);
    assert!(cl1 > 0);
    // CL-1 (full environment loop) sees at least as many implicated
    // faults as the driver-supervision loop.
    assert!(cl1 >= cl3, "cl1 = {cl1}, cl3 = {cl3}");
}

#[test]
fn control_loops_consistent_with_structure() {
    // Every component on a standard loop participates in at least one
    // edge of the standard structure.
    let s = disengage::stpa::ControlStructure::standard();
    for l in ControlLoop::standard() {
        for &c in &l.components {
            let touched = s.edges().iter().any(|e| e.from == c || e.to == c);
            assert!(touched, "{c} is on {} but touches no edges", l.id);
        }
    }
    // The planner participates in all three loops and is the component
    // the paper's case studies implicate.
    assert_eq!(
        ControlLoop::loops_containing(Component::PlannerController).len(),
        3
    );
}

#[test]
fn dictionary_mining_recovers_known_phrases() {
    // Run the dictionary-construction tooling over the generated corpus:
    // the top bigrams must include phrases the shipped dictionary has.
    let o = outcome();
    let descriptions: Vec<&str> = o
        .database
        .disengagements()
        .iter()
        .map(|r| r.description.as_str())
        .collect();
    let top = top_ngrams(descriptions.iter().copied(), 2, 5, 40);
    assert!(!top.is_empty());
    let joined: Vec<&str> = top.iter().map(|n| n.ngram.as_str()).collect();
    // Signature phrases from Table II / the template bank.
    assert!(
        joined.iter().any(|g| g.contains("perception missed")
            || g.contains("behavior prediction")
            || g.contains("software module")
            || g.contains("watchdog")
            || g.contains("road user")),
        "top bigrams: {joined:?}"
    );
}

#[test]
fn tfidf_separates_fault_classes() {
    // Aggregate descriptions per intended tag into one document per
    // class; tf-idf should rank each class's own vocabulary on top.
    let o = outcome();
    let mut per_tag: std::collections::BTreeMap<FaultTag, String> = Default::default();
    for (r, &tag) in o
        .corpus
        .truth
        .disengagements()
        .iter()
        .zip(&o.corpus.intended_tags)
    {
        per_tag.entry(tag).or_default().push_str(&r.description);
        per_tag.entry(tag).or_default().push(' ');
    }
    let tags: Vec<FaultTag> = per_tag.keys().copied().collect();
    let docs: Vec<&str> = per_tag.values().map(String::as_str).collect();
    let model = TfIdf::fit(docs.iter().copied());
    let idx = tags
        .iter()
        .position(|&t| t == FaultTag::HangCrash)
        .expect("hang/crash present");
    let top = model.top_terms(idx, 5);
    assert!(
        top.iter()
            .any(|t| t.term == "watchdog" || t.term == "reboot" || t.term == "rebooted"),
        "hang/crash top terms: {top:?}"
    );
}

#[test]
fn analysis_tables_survive_csv_interchange() {
    let o = outcome();
    for (name, table) in [
        ("table1", tables::table1(&o.database).expect("t1")),
        ("table4", tables::table4(&o.tagged).expect("t4")),
        ("table5", tables::table5(&o.database).expect("t5")),
        ("table6", tables::table6(&o.database).expect("t6")),
        ("table7", tables::table7(&o.database).expect("t7")),
    ] {
        // These tables hold names and numbers only, so no field needs
        // quoting: one line per row after the header, one field per
        // column on every line.
        let text = csv::write_str(&table);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), table.rows().count() + 1, "{name} rows");
        assert_eq!(lines[0], table.names().join(","), "{name} header");
        for line in &lines {
            assert_eq!(
                line.split(',').count(),
                table.names().len(),
                "{name}: {line}"
            );
        }
    }
}
