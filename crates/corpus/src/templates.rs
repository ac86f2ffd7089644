//! Description templates: the free-text cause narratives of the
//! synthetic logs.
//!
//! Templates are organized by the fault tag they describe and are
//! phrased the way the real filings are (Table II's verbatim samples are
//! all present). Each tag's templates embed that tag's dictionary
//! vocabulary so Stage III can recover the tag — and the *vague*
//! templates deliberately carry no dictionary vocabulary at all,
//! reproducing Tesla's 98.35%-Unknown and Volkswagen's 13.85%-Unknown
//! rows of Table IV.

use disengage_nlp::FaultTag;
use rand::Rng;

/// Templates for a classifiable fault tag.
///
/// # Panics
///
/// Panics when called with [`FaultTag::UnknownT`] — use
/// [`vague_templates`] for unclassifiable narratives.
pub fn templates_for(tag: FaultTag) -> &'static [&'static str] {
    match tag {
        FaultTag::Environment => &[
            "Disengage for a recklessly behaving road user",
            "undetected construction zone forced a takeover",
            "emergency vehicle approaching with sirens",
            "sudden lane closure ahead due to roadwork",
            "heavy rain degraded visibility",
            "sun glare at the intersection",
            "cyclist swerved suddenly into the lane",
            "jaywalking pedestrian stepped out between parked cars",
            "erratic road user drifting across lanes",
        ],
        FaultTag::RecognitionSystem => &[
            "The AV didn't see the lead vehicle",
            "perception missed the pedestrian at the crosswalk",
            "recognition failure on the traffic light state",
            "misclassified object on the roadway",
            "lane markings not recognized in faded paint",
            "false obstacle detection caused unnecessary braking",
            "failed to detect a pothole and bump in the road",
            "perception system misjudged the gap to the merging car",
            "traffic light not recognized against the low sun",
        ],
        FaultTag::Planner => &[
            "planner failed to anticipate the other driver's behavior",
            "improper motion planning near the intersection",
            "motion plan infeasible for the lane change",
            "path planning error in heavy traffic",
            "planner produced an unwanted maneuver",
            "late braking decision by the planner",
            "trajectory generation failed during the merge",
        ],
        FaultTag::IncorrectBehaviorPrediction => &[
            "incorrect behavior prediction for the approaching car",
            "behavior prediction wrong about the merging vehicle",
            "mispredicted other vehicle at the four-way stop",
            "predicted the cyclist incorrectly at the crosswalk",
        ],
        FaultTag::AvControllerDecision => &[
            "controller made a wrong decision during the merge",
            "incorrect control action applied at low speed",
            "controller chose an incorrect maneuver",
            "bad control decision in stop-and-go traffic",
        ],
        FaultTag::DesignBug => &[
            "the AV was not designed to handle an unforeseen situation",
            "unsupported scenario encountered at the roundabout",
            "design limitation exposed during reverse parking",
            "unhandled edge case in the detour routing",
        ],
        FaultTag::Software => &[
            "Software module froze",
            "software crash in the planning process",
            "software bug triggered a fault flag",
            "software hang detected by the supervisor",
            "process crashed and restarted",
            "null pointer dereference in the logging module",
            "software discrepancy between redundant modules",
        ],
        FaultTag::ComputerSystem => &[
            "processor overload during sensor fusion",
            "compute unit fault required a restart",
            "memory exhausted on the main computer",
            "hardware fault in the compute enclosure",
            "onboard computer overheated",
        ],
        FaultTag::HangCrash => &[
            "watchdog error",
            "watchdog timer expired",
            "system hang forced a takeover",
            "system froze and rebooted",
            "unexpected reboot of the main unit",
        ],
        FaultTag::Sensor => &[
            "sensor failed to localize in time",
            "gps signal lost under the overpass",
            "lidar dropout during the run",
            "radar misread the overhead sign",
            "camera blinded by low sun",
            "sensor malfunction on the front array",
            "calibration drift detected in the lidar",
        ],
        FaultTag::Network => &[
            "data rate too high for the onboard network",
            "network congestion delayed sensor frames",
            "can bus errors flooded the log",
            "messages dropped on the network backbone",
            "communication timeout between modules",
        ],
        FaultTag::AvControllerUnresponsive => &[
            "the AV controller did not respond to commands",
            "unresponsive controller during lane keeping",
            "steering command ignored by the controller",
            "actuator command not executed in time",
            "controller stopped responding",
        ],
        FaultTag::UnknownT => panic!("UnknownT has no templates; use vague_templates()"),
    }
}

/// Narratives carrying no dictionary vocabulary — the classifier lands
/// on `Unknown-T` for these, as it does for Tesla's terse filings.
pub fn vague_templates() -> &'static [&'static str] {
    &[
        "disengage event recorded, no further detail",
        "autopilot disengage logged",
        "mode transition to manual recorded",
        "operator ended the autonomous session",
        "disengage initiated, cause not specified",
        "event logged during routine operation",
        "takeover occurred, details unavailable",
    ]
}

/// Neutral suffixes appended to some descriptions for variety (chosen to
/// carry no dictionary vocabulary, so they never change the tag).
const NEUTRAL_SUFFIXES: &[&str] = &[
    "",
    ", driver safely disengaged and resumed manual operation",
    ", test driver took over",
    ", safety driver intervened",
    ", vehicle returned to manual operation",
];

/// Composes a description for a tag: a template plus an optional neutral
/// suffix.
pub fn compose<R: Rng + ?Sized>(tag: FaultTag, rng: &mut R) -> String {
    if tag == FaultTag::UnknownT {
        // Vague narratives get no suffix: even a "neutral" suffix can
        // carry a stray dictionary word, and unknowns must stay unknown.
        let bank = vague_templates();
        return bank[rng.gen_range(0..bank.len())].to_owned();
    }
    let bank = templates_for(tag);
    let template = bank[rng.gen_range(0..bank.len())];
    let suffix = NEUTRAL_SUFFIXES[rng.gen_range(0..NEUTRAL_SUFFIXES.len())];
    format!("{template}{suffix}")
}

/// Accident narrative fragments (modeled on the paper's two case
/// studies: low-speed collisions near intersections where other drivers
/// could not anticipate the AV).
pub fn accident_narratives() -> &'static [&'static str] {
    &[
        "AV yielded to a pedestrian and braked; the vehicle behind collided with the rear of the AV",
        "AV stopped before a right turn, crept forward to gauge traffic, and was struck from behind by a driver who could not anticipate the AV",
        "AV was proceeding slowly through the intersection when a manual vehicle side-swiped it while changing lanes",
        "manual vehicle rear-ended the AV while it waited to merge",
        "AV halted for cross traffic; the following driver expected it to proceed and bumped its rear bumper",
        "a manual vehicle clipped the AV's mirror while overtaking near the intersection",
        "AV was creeping at low speed in a parking lot when a reversing vehicle contacted its rear quarter",
    ]
}

/// Intersection-adjacent locations for accident reports (the dataset's
/// accidents cluster on urban streets near intersections).
pub fn accident_locations() -> &'static [&'static str] {
    &[
        "El Camino Real & Clark Ave, Mountain View CA",
        "South Shoreline Blvd & Highschool Way, Mountain View CA",
        "Castro St & Church St, Mountain View CA",
        "Folsom St & 5th St, San Francisco CA",
        "Harrison St & 8th St, San Francisco CA",
        "Lawrence Expy & Tasman Dr, Sunnyvale CA",
        "First St & Mission St, San Jose CA",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use disengage_nlp::{Classifier, FailureCategory};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_template_classifies_to_its_tag() {
        let cl = Classifier::with_default_dictionary();
        for tag in FaultTag::ALL {
            if tag == FaultTag::UnknownT {
                continue;
            }
            for t in templates_for(tag) {
                let a = cl.classify(t);
                assert_eq!(a.tag, tag, "template {t:?} classified as {}", a.tag);
            }
        }
    }

    #[test]
    fn vague_templates_stay_unknown() {
        let cl = Classifier::with_default_dictionary();
        for t in vague_templates() {
            let a = cl.classify(t);
            assert_eq!(
                a.tag,
                FaultTag::UnknownT,
                "vague template {t:?} matched {}",
                a.tag
            );
            assert_eq!(a.category, FailureCategory::UnknownC);
        }
    }

    #[test]
    fn suffixes_never_flip_the_tag() {
        let cl = Classifier::with_default_dictionary();
        for tag in FaultTag::ALL {
            if tag == FaultTag::UnknownT {
                continue;
            }
            for t in templates_for(tag) {
                for suffix in NEUTRAL_SUFFIXES {
                    let text = format!("{t}{suffix}");
                    let a = cl.classify(&text);
                    assert_eq!(a.tag, tag, "{text:?} classified as {}", a.tag);
                }
            }
        }
    }

    #[test]
    fn compose_is_deterministic_under_seed() {
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(
            compose(FaultTag::Software, &mut r1),
            compose(FaultTag::Software, &mut r2)
        );
    }

    #[test]
    fn compose_unknown_uses_vague_bank() {
        let mut rng = StdRng::seed_from_u64(4);
        let cl = Classifier::with_default_dictionary();
        for _ in 0..20 {
            let d = compose(FaultTag::UnknownT, &mut rng);
            assert_eq!(cl.classify(&d).tag, FaultTag::UnknownT, "{d}");
        }
    }

    #[test]
    fn narrative_banks_nonempty() {
        assert!(accident_narratives().len() >= 5);
        assert!(accident_locations().len() >= 5);
    }
}
