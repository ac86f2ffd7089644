//! The control/feedback edge graph of Fig. 3, with causal-factor labels.

use crate::component::Component;
use std::fmt;

/// Whether an edge carries control actions (downward) or feedback
/// (upward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A control action (e.g. "decelerate").
    Control,
    /// A feedback message (e.g. perceived traffic-light state).
    Feedback,
}

/// The potential causal factors annotated on Fig. 3's edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CausalFactor {
    /// Unexpected driver action / inability to predict non-AV behavior.
    UnexpectedDriverAction,
    /// Software error or incorrect/untimely inference.
    IncorrectUntimelyInference,
    /// Control software malfunction.
    ControlSoftwareMalfunction,
    /// Sensor malfunction or data corruption.
    SensorMalfunction,
    /// Mechanical failure.
    MechanicalFailure,
    /// Insufficient time for the driver to react to a disengagement.
    InsufficientReactionTime,
    /// Failure of the onboard network.
    NetworkFailure,
}

impl fmt::Display for CausalFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CausalFactor::UnexpectedDriverAction => "unexpected driver action",
            CausalFactor::IncorrectUntimelyInference => "incorrect/untimely inference",
            CausalFactor::ControlSoftwareMalfunction => "control software malfunction",
            CausalFactor::SensorMalfunction => "sensor malfunction / data corruption",
            CausalFactor::MechanicalFailure => "mechanical failure",
            CausalFactor::InsufficientReactionTime => "insufficient time to react",
            CausalFactor::NetworkFailure => "network failure",
        })
    }
}

/// A directed edge of the control structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source component.
    pub from: Component,
    /// Destination component.
    pub to: Component,
    /// Control or feedback.
    pub kind: EdgeKind,
    /// What flows along this edge.
    pub label: &'static str,
    /// Fig. 3's potential causal factors for this edge.
    pub causal_factors: Vec<CausalFactor>,
}

/// The AV hierarchical control structure: components plus labelled
/// control/feedback edges.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlStructure {
    edges: Vec<Edge>,
}

impl ControlStructure {
    /// The standard structure of Fig. 3.
    pub fn standard() -> ControlStructure {
        use CausalFactor::*;
        use Component::*;
        use EdgeKind::*;
        let e = |from, to, kind, label, causal_factors: &[CausalFactor]| Edge {
            from,
            to,
            kind,
            label,
            causal_factors: causal_factors.to_vec(),
        };
        ControlStructure {
            edges: vec![
                // Sensing path (sensor streams traverse the onboard
                // network before reaching recognition).
                e(
                    Sensors,
                    Network,
                    Feedback,
                    "raw sensor streams",
                    &[SensorMalfunction, NetworkFailure],
                ),
                e(
                    Network,
                    Recognition,
                    Feedback,
                    "delivered sensor data",
                    &[NetworkFailure],
                ),
                e(
                    Sensors,
                    Recognition,
                    Feedback,
                    "sensor data",
                    &[SensorMalfunction, NetworkFailure],
                ),
                e(
                    Recognition,
                    PlannerController,
                    Feedback,
                    "perceived environment",
                    &[IncorrectUntimelyInference],
                ),
                // Planning and actuation path.
                e(
                    PlannerController,
                    Follower,
                    Control,
                    "motion plan",
                    &[IncorrectUntimelyInference, ControlSoftwareMalfunction],
                ),
                e(
                    Follower,
                    Actuators,
                    Control,
                    "actuator signals",
                    &[ControlSoftwareMalfunction, NetworkFailure],
                ),
                e(
                    Actuators,
                    Mechanical,
                    Control,
                    "mechanical actuation",
                    &[MechanicalFailure],
                ),
                e(
                    Mechanical,
                    Sensors,
                    Feedback,
                    "vehicle state",
                    &[MechanicalFailure, SensorMalfunction],
                ),
                // Driver supervision loop.
                e(
                    PlannerController,
                    Driver,
                    Feedback,
                    "disengagement alert",
                    &[InsufficientReactionTime],
                ),
                e(
                    Driver,
                    PlannerController,
                    Control,
                    "manual takeover",
                    &[InsufficientReactionTime, UnexpectedDriverAction],
                ),
                e(
                    Driver,
                    Mechanical,
                    Control,
                    "manual driving",
                    &[MechanicalFailure],
                ),
                // Interaction with other road users.
                e(
                    NonAvDriver,
                    Sensors,
                    Feedback,
                    "observed non-AV behavior",
                    &[UnexpectedDriverAction, SensorMalfunction],
                ),
                e(
                    PlannerController,
                    NonAvDriver,
                    Control,
                    "signals to other drivers",
                    &[UnexpectedDriverAction, IncorrectUntimelyInference],
                ),
            ],
        }
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Every causal factor that can afflict edges touching a component.
    pub fn causal_factors_at(&self, c: Component) -> Vec<CausalFactor> {
        let mut out: Vec<CausalFactor> = Vec::new();
        for e in self.edges.iter().filter(|e| e.from == c || e.to == c) {
            for &f in &e.causal_factors {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        out.sort();
        out
    }
}

impl Default for ControlStructure {
    fn default() -> ControlStructure {
        ControlStructure::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component::*;

    /// Whether a directed path of edges leads from `from` to `to`.
    fn reachable(s: &ControlStructure, from: Component, to: Component) -> bool {
        let mut seen = vec![from];
        let mut next = 0;
        while let Some(&c) = seen.get(next) {
            next += 1;
            for e in s.edges().iter().filter(|e| e.from == c) {
                if e.to == to {
                    return true;
                }
                if !seen.contains(&e.to) {
                    seen.push(e.to);
                }
            }
        }
        false
    }

    #[test]
    fn standard_structure_connected() {
        let s = ControlStructure::standard();
        // The full perception-to-actuation chain exists.
        assert!(reachable(&s, Sensors, Mechanical));
        // Feedback closes the loop.
        assert!(reachable(&s, Mechanical, Sensors));
        // The driver can affect the vehicle.
        assert!(reachable(&s, Driver, Mechanical));
    }

    #[test]
    fn no_direct_sensor_to_actuator_edge() {
        let s = ControlStructure::standard();
        assert!(!s
            .edges()
            .iter()
            .any(|e| e.from == Sensors && e.to == Actuators));
    }

    #[test]
    fn edge_queries() {
        let s = ControlStructure::standard();
        let from_planner = s.edges().iter().filter(|e| e.from == PlannerController);
        assert_eq!(from_planner.count(), 3); // follower, driver alert, non-AV signals
        let into_planner = s.edges().iter().filter(|e| e.to == PlannerController);
        assert_eq!(into_planner.count(), 2); // recognition feedback, driver takeover
    }

    #[test]
    fn causal_factors_aggregate() {
        let s = ControlStructure::standard();
        let at_sensors = s.causal_factors_at(Sensors);
        assert!(at_sensors.contains(&CausalFactor::SensorMalfunction));
        let at_driver = s.causal_factors_at(Driver);
        assert!(at_driver.contains(&CausalFactor::InsufficientReactionTime));
    }

    #[test]
    fn every_edge_has_causal_factors() {
        for e in ControlStructure::standard().edges() {
            assert!(
                !e.causal_factors.is_empty(),
                "edge {} -> {} has no causal factors",
                e.from,
                e.to
            );
            assert!(!e.label.is_empty());
        }
    }

    #[test]
    fn non_av_driver_cannot_be_controlled_transitively_only_signalled() {
        let s = ControlStructure::standard();
        // There is an edge to the non-AV driver (signaling) ...
        assert_eq!(s.edges().iter().filter(|e| e.to == NonAvDriver).count(), 1);
        // ... and the non-AV driver feeds back through the sensors.
        assert!(reachable(&s, NonAvDriver, PlannerController));
    }
}
