//! Graphviz DOT export of the control structure — a renderable Fig. 3.

use crate::component::Component;
use crate::structure::{ControlStructure, EdgeKind};

/// Renders the control structure as a Graphviz digraph.
///
/// Components are clustered by layer (human drivers / autonomous control
/// / mechanical system, as Fig. 3 draws them); control edges are solid,
/// feedback edges dashed, and each edge is labelled with what flows plus
/// its potential causal factors.
///
/// # Examples
///
/// ```
/// # use disengage_stpa::{dot::to_dot, ControlStructure};
/// let dot = to_dot(&ControlStructure::standard());
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("Planner"));
/// ```
pub fn to_dot(structure: &ControlStructure) -> String {
    let mut out = String::from("digraph control_structure {\n");
    out.push_str("    rankdir=TB;\n    node [shape=box, fontname=\"Helvetica\"];\n");
    // Layer clusters.
    let layers = [
        (
            "human_drivers",
            "Human Drivers",
            vec![Component::Driver, Component::NonAvDriver],
        ),
        (
            "autonomous_control",
            "Autonomous Control",
            vec![
                Component::Sensors,
                Component::Network,
                Component::Recognition,
                Component::PlannerController,
                Component::Follower,
            ],
        ),
        (
            "mechanical",
            "Mechanical System",
            vec![Component::Actuators, Component::Mechanical],
        ),
    ];
    for (id, label, components) in layers {
        out.push_str(&format!(
            "    subgraph cluster_{id} {{\n        label=\"{label}\";\n"
        ));
        for c in components {
            out.push_str(&format!(
                "        {} [label=\"{}\"];\n",
                node_id(c),
                c.name()
            ));
        }
        out.push_str("    }\n");
    }
    for edge in structure.edges() {
        let style = match edge.kind {
            EdgeKind::Control => "solid",
            EdgeKind::Feedback => "dashed",
        };
        let factors: Vec<String> = edge.causal_factors.iter().map(|f| f.to_string()).collect();
        out.push_str(&format!(
            "    {} -> {} [style={style}, label=\"{}\\n[{}]\"];\n",
            node_id(edge.from),
            node_id(edge.to),
            edge.label,
            factors.join("; ")
        ));
    }
    out.push_str("}\n");
    out
}

fn node_id(c: Component) -> &'static str {
    match c {
        Component::Driver => "driver",
        Component::NonAvDriver => "non_av_driver",
        Component::Sensors => "sensors",
        Component::Recognition => "recognition",
        Component::PlannerController => "planner_controller",
        Component::Follower => "follower",
        Component::Network => "network",
        Component::Actuators => "actuators",
        Component::Mechanical => "mechanical",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_every_component_and_edge() {
        let s = ControlStructure::standard();
        let dot = to_dot(&s);
        for c in Component::ALL {
            assert!(dot.contains(node_id(c)), "missing node {c}");
        }
        // One arrow per edge.
        let arrows = dot.matches(" -> ").count();
        assert_eq!(arrows, s.edges().len());
    }

    #[test]
    fn feedback_edges_dashed() {
        let dot = to_dot(&ControlStructure::standard());
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=solid"));
    }

    #[test]
    fn causal_factors_in_labels() {
        let dot = to_dot(&ControlStructure::standard());
        assert!(dot.contains("insufficient time to react"));
        assert!(dot.contains("sensor malfunction"));
    }

    #[test]
    fn clusters_present() {
        let dot = to_dot(&ControlStructure::standard());
        assert!(dot.contains("cluster_human_drivers"));
        assert!(dot.contains("cluster_autonomous_control"));
        assert!(dot.contains("cluster_mechanical"));
    }
}
