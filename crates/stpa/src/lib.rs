//! STPA (Systems-Theoretic Process Analysis) model of the autonomous
//! driving system.
//!
//! Section III-B of the paper derives a hierarchical control structure
//! for an AV (Fig. 3) from public technical documentation, then overlays
//! the observed disengagements and accidents on it: every fault tag
//! localizes to components and control loops, and every control edge has
//! a set of potential causal factors whose inadequacy produces unsafe
//! control actions.
//!
//! This crate models that structure:
//!
//! * [`component`] — the components and layers of Fig. 3,
//! * [`structure`] — the control/feedback edge graph with the paper's
//!   causal-factor labels,
//! * [`loops`] — the three highlighted control loops CL-1..CL-3,
//! * [`overlay`] — mapping each [`disengage_nlp::FaultTag`] onto the
//!   implicated components, loops, and causal factors.
//!
//! # Examples
//!
//! ```
//! use disengage_stpa::overlay::overlay_for;
//! use disengage_nlp::FaultTag;
//! use disengage_stpa::component::Component;
//!
//! let o = overlay_for(FaultTag::RecognitionSystem);
//! assert!(o.components.contains(&Component::Recognition));
//! ```

pub mod component;
pub mod dot;
pub mod loops;
pub mod overlay;
pub mod structure;

pub use component::Component;
pub use loops::{ControlLoop, LoopId};
pub use overlay::{overlay_for, Overlay};
pub use structure::{CausalFactor, ControlStructure, Edge, EdgeKind};
