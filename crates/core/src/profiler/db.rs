//! The profile database.

use crate::scheduler::ConfigPoint;
use fastg_des::{snap_struct, SimTime};
use std::collections::BTreeMap;

/// A resource configuration key: fixed-point to make it orderable and
/// hashable without float pitfalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProfileKey {
    /// SM partition in hundredths of a percent.
    pub sm_centi: u32,
    /// Quota in hundredths (percent of the window).
    pub quota_centi: u32,
}

/// Quantizes a small non-negative ratio to integer centi-units.
fn centi(x: f64) -> u32 {
    // f64→u32 `as` saturates; profile inputs are small and non-negative.
    // fastg-lint: allow(no-lossy-cast)
    (x * 100.0).round() as u32
}

impl ProfileKey {
    /// Quantizes a `(sm %, quota fraction)` configuration.
    pub fn new(sm_partition: f64, quota: f64) -> Self {
        ProfileKey {
            sm_centi: centi(sm_partition),
            quota_centi: centi(quota),
        }
    }

    /// SM partition percentage.
    pub fn sm(&self) -> f64 {
        self.sm_centi as f64 / 100.0
    }

    /// Quota fraction.
    pub fn quota(&self) -> f64 {
        self.quota_centi as f64 / 100.0
    }
}

/// One trial's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileRecord {
    /// Sustained throughput (requests/second).
    pub rps: f64,
    /// Median latency.
    pub p50: SimTime,
    /// Tail latency.
    pub p99: SimTime,
    /// Mean GPU utilization during the trial.
    pub utilization: f64,
    /// Mean SM occupancy during the trial.
    pub sm_occupancy: f64,
}

/// The profiling database: `(function, configuration) → measurements`.
#[derive(Debug, Clone, Default)]
pub struct ProfileDb {
    records: BTreeMap<String, BTreeMap<ProfileKey, ProfileRecord>>,
}

impl ProfileDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or overwrites) a trial result.
    pub fn insert(&mut self, func: &str, key: ProfileKey, rec: ProfileRecord) {
        self.records.entry(func.to_string()).or_default().insert(key, rec);
    }

    /// Looks up one configuration.
    pub fn get(&self, func: &str, key: ProfileKey) -> Option<&ProfileRecord> {
        self.records.get(func)?.get(&key)
    }

    /// All records for a function, in key order.
    pub fn records_of(&self, func: &str) -> Vec<(ProfileKey, ProfileRecord)> {
        self.records
            .get(func)
            .map(|m| m.iter().map(|(&k, &r)| (k, r)).collect())
            .unwrap_or_default()
    }

    /// The function's profile as Algorithm 1 input points.
    pub fn config_points(&self, func: &str) -> Vec<ConfigPoint> {
        self.records_of(func)
            .into_iter()
            .map(|(k, r)| ConfigPoint {
                sm: k.sm(),
                quota: k.quota(),
                rps: r.rps,
            })
            .collect()
    }

    /// Throughput of a specific configuration (the scheduler's capacity
    /// lookup for a running pod). Falls back to the nearest profiled key
    /// when the exact configuration was not profiled.
    pub fn throughput_of(&self, func: &str, sm: f64, quota: f64) -> Option<f64> {
        let key = ProfileKey::new(sm, quota);
        if let Some(r) = self.get(func, key) {
            return Some(r.rps);
        }
        // Nearest by squared distance in (sm, quota×100) space.
        self.records_of(func)
            .into_iter()
            .min_by(|(a, _), (b, _)| {
                let d = |k: &ProfileKey| {
                    let ds = k.sm() - sm;
                    let dq = (k.quota() - quota) * 100.0;
                    ds * ds + dq * dq
                };
                d(a).partial_cmp(&d(b)).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(_, r)| r.rps)
    }

    /// Functions with profiles.
    pub fn functions(&self) -> Vec<&str> {
        self.records.keys().map(String::as_str).collect()
    }

    /// Serializes to JSON (the "database" the profiler persists).
    ///
    /// JSON object keys must be strings, so records are flattened to
    /// entry lists on disk:
    /// `{"functions": [{"name": ..., "records": [{...}, ...]}, ...]}`.
    pub fn to_json(&self) -> String {
        use fastg_json::{ObjectBuilder, Value};
        let functions: Vec<Value> = self
            .records
            .iter()
            .map(|(f, m)| {
                let records: Vec<Value> = m
                    .iter()
                    .map(|(&k, &r)| {
                        ObjectBuilder::new()
                            .field("sm_centi", k.sm_centi)
                            .field("quota_centi", k.quota_centi)
                            .field("rps", r.rps)
                            .field("p50_us", r.p50.as_micros())
                            .field("p99_us", r.p99.as_micros())
                            .field("utilization", r.utilization)
                            .field("sm_occupancy", r.sm_occupancy)
                            .build()
                    })
                    .collect();
                ObjectBuilder::new()
                    .field("name", f.as_str())
                    .field("records", Value::Array(records))
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("functions", Value::Array(functions))
            .build()
            .to_string_pretty()
    }
}

snap_struct!(ProfileKey {
    sm_centi,
    quota_centi,
});

snap_struct!(ProfileRecord {
    rps,
    p50,
    p99,
    utilization,
    sm_occupancy,
});

snap_struct!(ProfileDb { records });

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rps: f64) -> ProfileRecord {
        ProfileRecord {
            rps,
            p50: SimTime::from_millis(10),
            p99: SimTime::from_millis(30),
            utilization: 0.5,
            sm_occupancy: 0.1,
        }
    }

    #[test]
    fn insert_get_round_trip() {
        let mut db = ProfileDb::new();
        let k = ProfileKey::new(12.0, 0.4);
        db.insert("resnet50", k, rec(40.0));
        assert_eq!(db.get("resnet50", k).unwrap().rps, 40.0);
        assert!(db.get("resnet50", ProfileKey::new(24.0, 0.4)).is_none());
        assert!(db.get("bert", k).is_none());
        assert_eq!(db.functions(), vec!["resnet50"]);
    }

    #[test]
    fn key_quantization() {
        let k = ProfileKey::new(12.0, 0.4);
        assert_eq!(k.sm_centi, 1200);
        assert_eq!(k.quota_centi, 40);
        assert!((k.sm() - 12.0).abs() < 1e-9);
        assert!((k.quota() - 0.4).abs() < 1e-9);
        // Same logical config maps to the same key despite float noise.
        assert_eq!(ProfileKey::new(12.000001, 0.4000001), k);
    }

    #[test]
    fn config_points_feed_algorithm_1() {
        let mut db = ProfileDb::new();
        db.insert("f", ProfileKey::new(12.0, 0.4), rec(40.0));
        db.insert("f", ProfileKey::new(24.0, 0.4), rec(55.0));
        let pts = db.config_points("f");
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().any(|p| p.sm == 12.0 && p.rps == 40.0));
    }

    #[test]
    fn throughput_falls_back_to_nearest() {
        let mut db = ProfileDb::new();
        db.insert("f", ProfileKey::new(12.0, 0.4), rec(40.0));
        db.insert("f", ProfileKey::new(50.0, 1.0), rec(70.0));
        // Exact hit.
        assert_eq!(db.throughput_of("f", 12.0, 0.4), Some(40.0));
        // Nearest: (13 %, 0.38) is closest to (12 %, 0.4).
        assert_eq!(db.throughput_of("f", 13.0, 0.38), Some(40.0));
        assert_eq!(db.throughput_of("f", 60.0, 0.9), Some(70.0));
        assert_eq!(db.throughput_of("ghost", 12.0, 0.4), None);
    }

    #[test]
    fn json_round_trip() {
        let mut db = ProfileDb::new();
        db.insert("f", ProfileKey::new(6.0, 0.2), rec(12.0));
        let j = fastg_json::Value::parse(&db.to_json()).unwrap();
        let func = &j["functions"][0];
        assert_eq!(func["name"].as_str(), Some("f"));
        let rec = &func["records"][0];
        let key = (rec["sm_centi"].as_u64(), rec["quota_centi"].as_u64());
        assert_eq!(key, (Some(600), Some(20)));
        assert_eq!(rec["rps"].as_f64(), Some(12.0));
    }
}
