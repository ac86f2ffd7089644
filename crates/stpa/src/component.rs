//! Components of the AV hierarchical control structure (Fig. 3 of the
//! paper).

use std::fmt;

/// A component of the AV control structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// The AV's safety driver.
    Driver,
    /// A driver of another, non-autonomous vehicle.
    NonAvDriver,
    /// The sensor suite (GPS, RADAR, LIDAR, camera, SONAR).
    Sensors,
    /// The recognition (perception) system.
    Recognition,
    /// The planner-and-controller system.
    PlannerController,
    /// The follower system that turns plans into actuator signals.
    Follower,
    /// The onboard network connecting the stack.
    Network,
    /// The actuators (steering, throttle, brakes).
    Actuators,
    /// The mechanical components of the vehicle.
    Mechanical,
}

impl Component {
    /// All components.
    pub const ALL: [Component; 9] = [
        Component::Driver,
        Component::NonAvDriver,
        Component::Sensors,
        Component::Recognition,
        Component::PlannerController,
        Component::Follower,
        Component::Network,
        Component::Actuators,
        Component::Mechanical,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Component::Driver => "Driver",
            Component::NonAvDriver => "Non-AV Driver",
            Component::Sensors => "Sensors",
            Component::Recognition => "Recognition",
            Component::PlannerController => "Planner & Controller",
            Component::Follower => "Follower",
            Component::Network => "Network",
            Component::Actuators => "Actuators",
            Component::Mechanical => "Mechanical Components",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The sensor modalities listed in Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SensorKind {
    /// Global positioning.
    Gps,
    /// Radio detection and ranging.
    Radar,
    /// Light detection and ranging.
    Lidar,
    /// Visible-light camera.
    Camera,
    /// Ultrasonic ranging.
    Sonar,
}

impl SensorKind {
    /// All sensor modalities.
    pub const ALL: [SensorKind; 5] = [
        SensorKind::Gps,
        SensorKind::Radar,
        SensorKind::Lidar,
        SensorKind::Camera,
        SensorKind::Sonar,
    ];
}

impl fmt::Display for SensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SensorKind::Gps => "GPS",
            SensorKind::Radar => "RADAR",
            SensorKind::Lidar => "LIDAR",
            SensorKind::Camera => "Camera",
            SensorKind::Sonar => "SONAR",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Component::ALL.len());
    }

    #[test]
    fn five_sensor_modalities() {
        assert_eq!(SensorKind::ALL.len(), 5);
        assert_eq!(SensorKind::Lidar.to_string(), "LIDAR");
    }
}
