//! Periodic real-time task execution under a time-varying speed schedule.
//!
//! The paper's performance metric is raw throughput (eq. 5), inherited from
//! the real-time DVS line of work it builds on (Quan & Chaturvedi TII'10,
//! Huang DAC'11, Chaturvedi JSA'12 — refs \[2\], \[25\], \[31\]). This module
//! makes the connection concrete: given the per-core speed timeline a scheduling
//! algorithm produced, simulate a periodic task set under preemptive EDF
//! where the processor completes work at rate `v(t)`, and report deadline
//! behaviour. A core whose average speed exceeds the task set's utilization
//! should (and in these simulations does) meet implicit deadlines once the
//! oscillation period is small against the task periods — which is exactly
//! the regime AO's m-Oscillating schedules live in.

use mosc_sched::CoreSchedule;

/// One periodic task: releases a job every `period` seconds, each job needs
/// `wcet_work` units of work (seconds at speed 1.0) by its relative
/// `deadline`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Work per job, in speed-1 seconds.
    pub wcet_work: f64,
    /// Release period (s).
    pub period: f64,
    /// Relative deadline (s); implicit-deadline tasks use `period`.
    pub deadline: f64,
}

impl Task {
    /// Implicit-deadline constructor (`deadline = period`).
    #[must_use]
    pub fn implicit(wcet_work: f64, period: f64) -> Self {
        Self { wcet_work, period, deadline: period }
    }

    /// Utilization at speed 1 (`wcet / period`).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet_work / self.period
    }
}

/// A partitioned (single-core) task set.
#[derive(Debug, Clone, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Builds a task set; rejects non-positive parameters.
    ///
    /// # Panics
    /// Panics on degenerate task parameters (this is test/experiment
    /// tooling; garbage in is a programming error).
    #[must_use]
    pub fn new(tasks: Vec<Task>) -> Self {
        for t in &tasks {
            assert!(
                t.wcet_work > 0.0 && t.period > 0.0 && t.deadline > 0.0,
                "degenerate task {t:?}"
            );
        }
        Self { tasks }
    }

    /// The tasks.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total utilization at speed 1.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }
}

/// Outcome of an EDF simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct EdfStats {
    /// Jobs that completed by their deadline.
    pub completed: usize,
    /// Jobs that missed their deadline (counted once, at the miss).
    pub missed: usize,
    /// Largest lateness observed (s); 0 when nothing missed.
    pub max_lateness: f64,
    /// Work completed over the horizon (speed-1 seconds).
    pub work_done: f64,
    /// Number of preemptions.
    pub preemptions: usize,
}

#[derive(Debug, Clone)]
struct Job {
    abs_deadline: f64,
    remaining: f64,
    finished: Option<f64>,
}

/// Simulates preemptive EDF on one core whose speed follows `schedule`
/// (periodically repeated) for `horizon` seconds.
///
/// Event-driven: between consecutive events (job release, speed-segment
/// boundary, predicted completion) the running job's remaining work decreases
/// at the current speed. Jobs past their deadline keep running (lateness is
/// recorded); the simulation is deterministic.
///
/// # Panics
/// Panics on a non-positive horizon.
#[must_use]
pub fn simulate_edf(schedule: &CoreSchedule, tasks: &TaskSet, horizon: f64) -> EdfStats {
    assert!(horizon > 0.0, "horizon must be positive");
    let period = schedule.period();

    // Precompute speed-segment boundaries within one schedule period.
    let mut seg_bounds = Vec::with_capacity(schedule.segments().len());
    let mut acc = 0.0;
    for s in schedule.segments() {
        acc += s.duration;
        seg_bounds.push(acc);
    }

    // Minimum event step: guards against boundary "sticking" where float
    // rounding would otherwise produce zero-length iterations.
    let min_step = 1e-9 * period;
    let next_segment_boundary = |t: f64| -> f64 {
        let base = (t / period).floor() * period;
        let local = t - base;
        for &b in &seg_bounds {
            if b > local + min_step {
                return base + b;
            }
        }
        // `t` sits within min_step of the period wrap: the wrap itself is the
        // next boundary; the min-step clamp in the main loop guarantees we
        // cross it rather than sticking to it.
        base + period
    };

    let mut jobs: Vec<Job> = Vec::new();
    let mut stats =
        EdfStats { completed: 0, missed: 0, max_lateness: 0.0, work_done: 0.0, preemptions: 0 };
    let mut t = 0.0;
    let mut next_release: Vec<f64> = tasks.tasks().iter().map(|_| 0.0).collect();
    let mut last_running: Option<usize> = None;

    while t < horizon - 1e-12 {
        // Release due jobs.
        for (ti, task) in tasks.tasks().iter().enumerate() {
            while next_release[ti] <= t + 1e-12 {
                jobs.push(Job {
                    abs_deadline: next_release[ti] + task.deadline,
                    remaining: task.wcet_work,
                    finished: None,
                });
                next_release[ti] += task.period;
            }
        }

        // EDF pick: unfinished job with the earliest absolute deadline.
        let running = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.finished.is_none())
            .min_by(|(_, a), (_, b)| {
                a.abs_deadline.partial_cmp(&b.abs_deadline).expect("finite deadlines")
            })
            .map(|(i, _)| i);
        if let (Some(prev), Some(_)) = (last_running, running) {
            // Only count as preemption when the displaced job is unfinished.
            if last_running != running && jobs[prev].finished.is_none() {
                stats.preemptions += 1;
            }
        }
        last_running = running;

        // Next event horizon. The speed is probed a hair *inside* the
        // interval: accumulated event times drift by ULPs, and probing at
        // exactly `t` can read the segment just before a boundary instead of
        // the one the interval [t, t_next] actually lives in.
        let speed = schedule.voltage_at(t + min_step);
        let mut t_next = horizon
            .min(next_segment_boundary(t))
            .min(next_release.iter().copied().fold(f64::INFINITY, f64::min));
        if let Some(ri) = running {
            if speed > 0.0 {
                t_next = t_next.min(t + jobs[ri].remaining / speed);
            }
            // Deadline crossing is also an event (to record the miss at the
            // right instant).
            if jobs[ri].abs_deadline > t {
                t_next = t_next.min(jobs[ri].abs_deadline);
            }
        }
        let dt = (t_next - t).max(min_step);

        // Execute.
        if let Some(ri) = running {
            let done = speed * dt;
            let j = &mut jobs[ri];
            j.remaining -= done;
            stats.work_done += done;
            if j.remaining <= 1e-9 {
                j.finished = Some(t + dt);
                let lateness = (t + dt) - j.abs_deadline;
                if lateness > 1e-9 {
                    stats.missed += 1;
                    stats.max_lateness = stats.max_lateness.max(lateness);
                } else {
                    stats.completed += 1;
                }
            }
        }
        t += dt;
    }

    // Unfinished-but-late jobs at the horizon count as misses too.
    for j in &jobs {
        if j.finished.is_none() && j.abs_deadline < horizon {
            stats.missed += 1;
            stats.max_lateness = stats.max_lateness.max(horizon - j.abs_deadline);
        }
    }
    stats
}

/// Simulates one task set per core of a multi-core schedule (partitioned
/// scheduling: no migration). Returns per-core stats in core order.
///
/// # Panics
/// Panics when `task_sets.len()` differs from the schedule's core count or
/// the horizon is non-positive.
#[must_use]
pub fn simulate_partitioned(
    schedule: &mosc_sched::Schedule,
    task_sets: &[TaskSet],
    horizon: f64,
) -> Vec<EdfStats> {
    assert_eq!(task_sets.len(), schedule.n_cores(), "one task set per core is required");
    schedule
        .cores()
        .iter()
        .zip(task_sets)
        .map(|(core, tasks)| simulate_edf(core, tasks, horizon))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::Segment;

    fn constant_core(v: f64, period: f64) -> CoreSchedule {
        CoreSchedule::constant(v, period).expect("valid")
    }

    #[test]
    fn underloaded_constant_speed_meets_all_deadlines() {
        let sched = constant_core(1.0, 0.1);
        let tasks = TaskSet::new(vec![Task::implicit(0.2, 1.0), Task::implicit(0.3, 2.0)]);
        assert!(tasks.utilization() < 1.0);
        let stats = simulate_edf(&sched, &tasks, 20.0);
        assert_eq!(stats.missed, 0, "{stats:?}");
        assert!(stats.completed >= 20 + 9);
        assert!(stats.max_lateness == 0.0);
    }

    #[test]
    fn overloaded_core_misses_deadlines() {
        let sched = constant_core(0.6, 0.1);
        // Utilization 0.8 > speed 0.6.
        let tasks = TaskSet::new(vec![Task::implicit(0.8, 1.0)]);
        let stats = simulate_edf(&sched, &tasks, 10.0);
        assert!(stats.missed > 0);
        assert!(stats.max_lateness > 0.0);
    }

    #[test]
    fn oscillating_speed_with_sufficient_average_meets_deadlines() {
        // Average speed 0.95 against utilization 0.8, oscillation period
        // (2 ms) tiny against the task period (1 s): EDF sails through.
        let sched = CoreSchedule::new(vec![Segment::new(0.6, 0.001), Segment::new(1.3, 0.001)])
            .expect("valid");
        let tasks = TaskSet::new(vec![Task::implicit(0.8, 1.0)]);
        let stats = simulate_edf(&sched, &tasks, 12.0);
        assert_eq!(stats.missed, 0, "{stats:?}");
    }

    #[test]
    fn slow_oscillation_against_tight_deadlines_can_miss() {
        // Same average speed, but the low block (0.5 s at 0.6) is long
        // against a task with a 0.25 s deadline and 0.2 work: jobs released
        // into the low block cannot finish in time.
        let sched =
            CoreSchedule::new(vec![Segment::new(0.6, 0.5), Segment::new(1.3, 0.5)]).expect("valid");
        let tasks = TaskSet::new(vec![Task { wcet_work: 0.2, period: 0.25, deadline: 0.25 }]);
        let stats = simulate_edf(&sched, &tasks, 10.0);
        assert!(stats.missed > 0, "slow oscillation must hurt tight deadlines: {stats:?}");
        // The m-Oscillating transform fixes it at the same average speed.
        let fast = CoreSchedule::new(vec![Segment::new(0.6, 0.005), Segment::new(1.3, 0.005)])
            .expect("valid");
        let stats_fast = simulate_edf(&fast, &tasks, 10.0);
        assert_eq!(stats_fast.missed, 0, "{stats_fast:?}");
    }

    #[test]
    fn work_done_matches_speed_integral_when_backlogged() {
        // A permanently backlogged core does work at exactly the schedule's
        // average speed.
        let sched = CoreSchedule::new(vec![Segment::new(0.6, 0.05), Segment::new(1.3, 0.05)])
            .expect("valid");
        let tasks = TaskSet::new(vec![Task::implicit(100.0, 1000.0)]);
        let horizon = 10.0;
        let stats = simulate_edf(&sched, &tasks, horizon);
        let avg_speed = sched.work() / sched.period();
        assert!(
            (stats.work_done - avg_speed * horizon).abs() < 1e-6,
            "work {} vs {}",
            stats.work_done,
            avg_speed * horizon
        );
    }

    #[test]
    fn edf_prefers_earlier_deadline() {
        // Two tasks released together; the tighter one must win the core.
        let sched = constant_core(1.0, 1.0);
        let tasks = TaskSet::new(vec![
            Task { wcet_work: 0.3, period: 10.0, deadline: 0.4 },
            Task { wcet_work: 0.3, period: 10.0, deadline: 5.0 },
        ]);
        let stats = simulate_edf(&sched, &tasks, 10.0);
        assert_eq!(stats.missed, 0, "{stats:?}");
    }

    #[test]
    fn utilization_accounting() {
        let t = Task::implicit(0.5, 2.0);
        assert!((t.utilization() - 0.25).abs() < 1e-12);
        let set = TaskSet::new(vec![t, Task::implicit(1.0, 4.0)]);
        assert!((set.utilization() - 0.5).abs() < 1e-12);
        assert!(TaskSet::default().tasks().is_empty());
    }

    #[test]
    #[should_panic(expected = "degenerate task")]
    fn rejects_degenerate_tasks() {
        let _ = TaskSet::new(vec![Task::implicit(0.0, 1.0)]);
    }

    #[test]
    fn partitioned_simulation_runs_each_core() {
        let schedule = mosc_sched::Schedule::two_mode(&[0.6, 0.6], &[1.3, 1.3], &[0.9, 0.1], 0.01)
            .expect("schedule");
        // Core 0 (fast, avg 1.23) gets a heavy set; core 1 (avg 0.67) the
        // same set — only core 1 should struggle.
        let set = TaskSet::new(vec![Task::implicit(0.9, 1.0)]);
        let stats = simulate_partitioned(&schedule, &[set.clone(), set], 10.0);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].missed, 0, "{:?}", stats[0]);
        assert!(stats[1].missed > 0, "{:?}", stats[1]);
    }

    #[test]
    #[should_panic(expected = "one task set per core")]
    fn partitioned_requires_matching_lengths() {
        let schedule = mosc_sched::Schedule::constant(&[1.0, 1.0], 1.0).expect("schedule");
        let _ = simulate_partitioned(&schedule, &[TaskSet::default()], 1.0);
    }
}
