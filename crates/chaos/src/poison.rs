//! Stage III injector: failure-dictionary poisoning.
//!
//! The paper's classifier leans entirely on a hand-built phrase bank; a
//! realistic degradation is losing part of it (a bad merge, a truncated
//! data file, an over-aggressive stop-word pass). The poisoner drops
//! each phrase independently with the plan's fault probability — the
//! classifier must keep answering (falling back to `Unknown-T`), never
//! panic, even on an empty dictionary.

use crate::plan::FaultPlan;
use disengage_nlp::{FailureDictionary, FaultTag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rebuilds the dictionary with each phrase independently dropped with
/// probability `plan.rate`, returning the poisoned dictionary and how
/// many phrases were removed. Rate 0 reproduces the input exactly.
pub fn poison_dictionary(plan: &FaultPlan, dict: &FailureDictionary) -> (FailureDictionary, u64) {
    if !plan.active() {
        return (dict.clone(), 0);
    }
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xD1C7_1034);
    let mut out = FailureDictionary::new();
    let mut dropped = 0u64;
    for tag in FaultTag::ALL {
        for phrase in dict.phrases(tag) {
            if rng.gen_bool(plan.rate) {
                dropped += 1;
            } else {
                out.add_phrase(tag, phrase);
            }
        }
    }
    (out, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_nlp::Classifier;

    /// Phrases across every tag.
    fn size(d: &FailureDictionary) -> usize {
        FaultTag::ALL.iter().map(|&t| d.phrases(t).len()).sum()
    }

    #[test]
    fn rate_zero_keeps_everything() {
        let dict = FailureDictionary::default_bank();
        let (poisoned, dropped) = poison_dictionary(&FaultPlan::new(0.0, 3), &dict);
        assert_eq!(dropped, 0);
        assert_eq!(poisoned, dict);
    }

    #[test]
    fn rate_one_empties_the_bank() {
        let dict = FailureDictionary::default_bank();
        let (poisoned, dropped) = poison_dictionary(&FaultPlan::new(1.0, 3), &dict);
        assert_eq!(dropped as usize, size(&dict));
        assert_eq!(size(&poisoned), 0);
        // The classifier over an empty dictionary must still answer.
        let c = Classifier::new(poisoned);
        let a = c.classify("software module froze");
        assert_eq!(a.tag, FaultTag::UnknownT);
        let b = c.classify("");
        assert_eq!(b.tag, FaultTag::UnknownT);
    }

    #[test]
    fn partial_poisoning_deterministic_and_counted() {
        let dict = FailureDictionary::default_bank();
        let plan = FaultPlan::new(0.3, 11);
        let (p1, d1) = poison_dictionary(&plan, &dict);
        let (p2, d2) = poison_dictionary(&plan, &dict);
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
        assert_eq!(size(&p1) + d1 as usize, size(&dict));
        assert!(d1 > 0, "rate 0.3 over {} phrases dropped none", size(&dict));
    }
}
