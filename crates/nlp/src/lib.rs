//! Stage III of the paper's pipeline: NLP-based labeling and tagging of
//! disengagement and accident causes.
//!
//! The paper builds a *failure dictionary* — phrases mined from the raw
//! logs over several passes — and uses a keyword-voting scheme to assign
//! each free-text disengagement cause a **fault tag** (Table III) and a
//! **failure category** (`ML/Design` vs `System` vs `Unknown-C`), grounded
//! in the STPA control-structure ontology. This crate implements that
//! machinery:
//!
//! * [`token`] — tokenizer for log text,
//! * [`normalize`] — stop-word removal and a light suffix stemmer,
//! * [`ontology`] — the fault tags and categories of Table III,
//! * [`dictionary`] — the failure dictionary (shipped with the
//!   paper-derived phrase bank; extensible),
//! * [`vote`] — the keyword-voting classifier with `Unknown-T` fallback.
//!
//! The dictionary-construction tooling (n-gram mining, TF-IDF ranking
//! and the dictionary learner) is test support in `tests/learn/`: it
//! produces the EXPERIMENTS.md ablation, and no binary runs it.
//!
//! # Examples
//!
//! ```
//! use disengage_nlp::vote::Classifier;
//! use disengage_nlp::ontology::{FaultTag, FailureCategory};
//!
//! let classifier = Classifier::with_default_dictionary();
//! let a = classifier.classify("the AV didn't see the lead vehicle; perception missed it");
//! assert_eq!(a.tag, FaultTag::RecognitionSystem);
//! assert_eq!(a.category, FailureCategory::MlDesign);
//!
//! let b = classifier.classify("watchdog error");
//! assert_eq!(b.tag, FaultTag::HangCrash);
//! assert_eq!(b.category, FailureCategory::System);
//! ```

pub mod dictionary;
pub mod normalize;
pub mod ontology;
pub mod token;
pub mod vote;

pub use dictionary::FailureDictionary;
pub use ontology::{FailureCategory, FaultTag};
pub use vote::{Classifier, TagAssignment, TagVote};
