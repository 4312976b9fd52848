//! The configuration server: sampling plans over the (spatial × temporal)
//! resource space.

/// How the configuration space is sampled.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplePlan {
    /// Full cartesian grid of the given spatial (%) and temporal
    /// (fraction) points.
    Grid {
        /// SM-partition percentages.
        spatial: Vec<f64>,
        /// Quota fractions.
        temporal: Vec<f64>,
    },
}

/// A sampling plan reaching outside the profiled domain, (0, 100] % SMs
/// × (0, 1] quota. A trial there would run at a clamped configuration
/// and be filed under one that never ran, so such a plan is refused
/// before any trial runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplePlanError {
    /// A grid's SM percentage outside (0, 100].
    Spatial(f64),
    /// A quota outside (0, 1].
    Temporal(f64),
}

impl std::fmt::Display for SamplePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplePlanError::Spatial(sm) => write!(f, "SM partition {sm} % outside (0, 100]"),
            SamplePlanError::Temporal(q) => write!(f, "quota {q} outside (0, 1]"),
        }
    }
}

impl std::error::Error for SamplePlanError {}

/// Whether `(sm %, quota)` lies in the profiled domain.
pub(crate) fn check_point(sm: f64, quota: f64) -> Result<(), SamplePlanError> {
    check_sm(sm)?;
    check_quota(quota)
}

fn check_sm(sm: f64) -> Result<(), SamplePlanError> {
    let valid = sm > 0.0 && sm <= 100.0;
    valid.then_some(()).ok_or(SamplePlanError::Spatial(sm))
}

fn check_quota(quota: f64) -> Result<(), SamplePlanError> {
    let valid = quota > 0.0 && quota <= 1.0;
    valid.then_some(()).ok_or(SamplePlanError::Temporal(quota))
}

impl SamplePlan {
    /// Whether every point the plan samples lies in the profiled domain
    /// (NaN never does).
    pub fn validate(&self) -> Result<(), SamplePlanError> {
        let SamplePlan::Grid { spatial, temporal } = self;
        spatial.iter().try_for_each(|&sm| check_sm(sm))?;
        temporal.iter().try_for_each(|&q| check_quota(q))
    }
}

/// The configuration server: yields the `(sm_partition, quota)` pairs an
/// experiment profiles.
#[derive(Debug, Clone)]
pub struct ConfigServer {
    plan: SamplePlan,
}

impl ConfigServer {
    /// Creates a server with the given plan.
    pub fn new(plan: SamplePlan) -> Self {
        ConfigServer { plan }
    }

    /// The paper's §5.2 profiling grid,
    /// [`FIG8_SPATIAL`](crate::paper::FIG8_SPATIAL) ×
    /// [`FIG8_TEMPORAL`](crate::paper::FIG8_TEMPORAL).
    pub fn paper_grid() -> Self {
        Self::new(SamplePlan::Grid {
            spatial: crate::paper::FIG8_SPATIAL.to_vec(),
            temporal: crate::paper::FIG8_TEMPORAL.to_vec(),
        })
    }

    /// Materializes the sample list, deterministic for a given plan.
    ///
    /// # Errors
    /// A [`SamplePlanError`] if the plan reaches outside the profiled
    /// domain ([`SamplePlan::validate`]).
    pub fn sample(&self) -> Result<Vec<(f64, f64)>, SamplePlanError> {
        self.plan.validate()?;
        let SamplePlan::Grid { spatial, temporal } = &self.plan;
        let mut out = Vec::with_capacity(spatial.len() * temporal.len());
        for &s in spatial {
            out.extend(temporal.iter().map(|&q| (s, q)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_35_points() {
        let pts = ConfigServer::paper_grid().sample().unwrap();
        assert_eq!(pts.len(), 35);
        assert!(pts.contains(&(6.0, 0.2)));
        assert!(pts.contains(&(100.0, 1.0)));
    }

    #[test]
    fn grid_points_outside_the_domain_are_refused() {
        let grid = |spatial: Vec<f64>, temporal: Vec<f64>| {
            ConfigServer::new(SamplePlan::Grid { spatial, temporal }).sample()
        };
        assert_eq!(grid(vec![10.0], vec![1.5]), Err(SamplePlanError::Temporal(1.5)));
        assert_eq!(grid(vec![10.0], vec![0.0]), Err(SamplePlanError::Temporal(0.0)));
        assert_eq!(grid(vec![150.0], vec![0.5]), Err(SamplePlanError::Spatial(150.0)));
        assert_eq!(grid(vec![-1.0], vec![0.5]), Err(SamplePlanError::Spatial(-1.0)));
        assert!(matches!(grid(vec![f64::NAN, 50.0], vec![0.5]), Err(SamplePlanError::Spatial(s)) if s.is_nan()));
        assert!(matches!(grid(vec![50.0], vec![f64::NAN]), Err(SamplePlanError::Temporal(q)) if q.is_nan()));
        // The domain's closed ends are in it.
        assert_eq!(grid(vec![100.0], vec![1.0]), Ok(vec![(100.0, 1.0)]));
        assert_eq!(grid(vec![], vec![]), Ok(vec![]));
    }
}
