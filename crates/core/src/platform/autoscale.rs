//! The auto-scaler control loop: predicted RPS → Algorithm 1 (Heuristic
//! Scaling) → pod creation through Algorithm 2 placement, or draining.

use super::engine::{schedule_next, Engine, Event};
use crate::profiler::ProfileDb;
use crate::scheduler::{heuristic_scale, ConfigPoint, RunningPod, ScaleAction};
use fastg_cluster::{FuncId, ResourceSpec};
use fastg_des::{EventQueue, SimTime};

impl Engine {
    pub(super) fn on_scale_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        schedule_next(queue, now, self.cfg.autoscale_interval, Event::ScaleTick);
        let Some(db) = self.autoscale_db.take() else {
            return;
        };
        let func_ids: Vec<FuncId> = self.funcs.keys().collect();
        for func in func_ids {
            self.scale_function(now, func, &db, queue);
        }
        self.autoscale_db = Some(db);
    }

    fn scale_function(
        &mut self,
        now: SimTime,
        func: FuncId,
        db: &ProfileDb,
        queue: &mut EventQueue<Event>,
    ) {
        let model_name = &self.funcs[func].spec.model;
        let profile = db.config_points(model_name);
        if profile.is_empty() {
            return;
        }
        let predicted = self
            .gateway
            .predicted_rate(func, now, self.cfg.predict_window)
            * self.cfg.autoscale_headroom;
        let running: Vec<RunningPod> = self
            .cluster
            .running_pods_of(func)
            .into_iter()
            .filter_map(|p| {
                let pod = self.cluster.pod(p).ok()?;
                let sm = pod.resources.sm_partition;
                // Capacity accounting uses the guaranteed share; elastic
                // headroom above the request is a bonus, not a promise.
                let quota = pod.resources.quota_request;
                let rps = db.throughput_of(model_name, sm, quota)?;
                Some(RunningPod {
                    pod: p,
                    config: ConfigPoint { sm, quota, rps },
                })
            })
            .collect();
        let capacity: f64 = running.iter().map(|r| r.config.rps).sum();
        let delta = predicted - capacity;
        let actions = heuristic_scale(delta, &profile, &running);
        let mut remaining = running.len();
        for action in actions {
            match action {
                ScaleAction::Up(p) => {
                    let mem = self.funcs[func].model.memory.total();
                    // Guaranteed share = the profiled quota; the limit is
                    // elastic (the paper's Kubernetes-style allocation:
                    // idle GPU time may be used beyond the request).
                    let spec = ResourceSpec::new(p.sm, p.quota, 1.0, mem);
                    // Placement failure is counted inside create_pod.
                    if self.create_pod(now, func, spec, queue).is_ok() {
                        if let Some(rt) = self.funcs.get_mut(func) {
                            rt.desired_replicas += 1;
                        }
                    }
                }
                ScaleAction::Down(pod) => {
                    if remaining > self.cfg.min_replicas {
                        self.drain_pod(pod, queue);
                        remaining -= 1;
                        let min = self.cfg.min_replicas;
                        if let Some(rt) = self.funcs.get_mut(func) {
                            rt.desired_replicas = rt.desired_replicas.saturating_sub(1).max(min);
                        }
                    }
                }
            }
        }
    }
}
