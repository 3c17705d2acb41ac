//! The coordinator's dynamic work queue: canonical ego-range tasks, leases
//! with heartbeat-refreshed deadlines, and re-queue bookkeeping.
//!
//! Tasks are the balanced contiguous tiling of `0..n`
//! ([`locec_store::DivisionShard::ego_range`]) into `T` ranges, with `T`
//! deliberately larger than the worker count so fast workers steal more
//! work — the dynamic analogue of PR 3's static `--shard i/n` split.
//! A lease binds one task to one worker until it either delivers a result,
//! disconnects, or misses its deadline; re-queued tasks go to the *front*
//! of the pending queue so recovery work is retried before untouched work.

use locec_store::DivisionShard;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// One unit of work: a contiguous ego range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskRange {
    /// Task index in `0..task_count` (doubles as the result's shard index).
    pub index: u32,
    /// First ego (inclusive).
    pub start: u32,
    /// One past the last ego.
    pub end: u32,
}

/// A handed-out lease.
#[derive(Clone, Copy, Debug)]
struct LeaseState {
    task: u32,
    worker: u64,
    /// When the lease was handed out: the start of its wall time.
    granted: Instant,
    deadline: Instant,
    /// A result frame for this lease is mid-transfer; suspend expiry so a
    /// slow merge gate cannot re-queue work that is already arriving.
    result_in_flight: bool,
    /// Consecutive heartbeats in which the holder reported itself *idle*.
    /// One idle beat can race the lease frame still in flight; two in a
    /// row (a full heartbeat interval after the grant) means the lease or
    /// its result was lost on the wire, and the task is re-queued without
    /// waiting for the deadline.
    idle_beats: u32,
}

/// How many consecutive idle heartbeats from a lease's holder mark the
/// lease as lost in transit (see [`LeaseState::idle_beats`]).
const IDLE_BEATS_LOST: u32 = 2;

/// The queue itself. Time is passed in by the caller so expiry is
/// deterministic under test.
pub struct WorkQueue {
    tasks: Vec<TaskRange>,
    pending: VecDeque<u32>,
    leases: HashMap<u64, LeaseState>,
    done: Vec<bool>,
    next_lease_id: u64,
    requeues: u64,
}

impl WorkQueue {
    /// Tiles `0..num_egos` into `task_count` balanced contiguous ranges
    /// (clamped so no task is empty) and marks them all pending.
    pub fn new(num_egos: usize, task_count: u32) -> Self {
        let count = if num_egos == 0 {
            0
        } else {
            task_count.clamp(1, num_egos as u32)
        };
        let tasks: Vec<TaskRange> = (0..count)
            .map(|i| {
                let r = DivisionShard::ego_range(i, count, num_egos);
                TaskRange {
                    index: i,
                    start: r.start,
                    end: r.end,
                }
            })
            .collect();
        WorkQueue {
            pending: (0..count).collect(),
            done: vec![false; count as usize],
            tasks,
            leases: HashMap::new(),
            next_lease_id: 1,
            requeues: 0,
        }
    }

    /// Total number of tasks.
    pub fn task_count(&self) -> u32 {
        self.tasks.len() as u32
    }

    /// The canonical range of one task.
    pub fn task(&self, index: u32) -> TaskRange {
        self.tasks[index as usize]
    }

    /// Whether un-leased work remains.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Tasks re-queued after a lease was lost (timeout or disconnect).
    pub fn requeues(&self) -> u64 {
        self.requeues
    }

    /// Whether a worker currently holds any lease.
    pub fn worker_is_busy(&self, worker: u64) -> bool {
        self.leases.values().any(|l| l.worker == worker)
    }

    /// Leases the next pending task to `worker`. Returns the fresh lease id
    /// and the task.
    pub fn lease_next(
        &mut self,
        worker: u64,
        now: Instant,
        timeout: Duration,
    ) -> Option<(u64, TaskRange)> {
        let task = self.pending.pop_front()?;
        let id = self.next_lease_id;
        self.next_lease_id += 1;
        self.leases.insert(
            id,
            LeaseState {
                task,
                worker,
                granted: now,
                deadline: now + timeout,
                result_in_flight: false,
                idle_beats: 0,
            },
        );
        Some((id, self.tasks[task as usize]))
    }

    /// Refreshes the deadlines of every lease `worker` holds. `busy` is
    /// the worker's self-reported state: a holder that reports idle
    /// `IDLE_BEATS_LOST` beats in a row lost its lease (or the result)
    /// in transit — a dropped frame on either side — and the task is
    /// re-queued immediately instead of waiting out the deadline. Returns
    /// the number of re-queued tasks. (A false positive is harmless:
    /// the coordinator drops a result for an already-absorbed task.)
    pub fn heartbeat(&mut self, worker: u64, busy: bool, now: Instant, timeout: Duration) -> usize {
        let mut lost = Vec::new();
        for (&id, l) in self.leases.iter_mut().filter(|(_, l)| l.worker == worker) {
            l.deadline = now + timeout;
            if busy || l.result_in_flight {
                l.idle_beats = 0;
            } else {
                l.idle_beats += 1;
                if l.idle_beats >= IDLE_BEATS_LOST {
                    lost.push(id);
                }
            }
        }
        let mut requeued = 0;
        for id in lost {
            if let Some(l) = self.leases.remove(&id) {
                if !self.done[l.task as usize] && !self.pending.contains(&l.task) {
                    self.pending.push_front(l.task);
                    self.requeues += 1;
                    requeued += 1;
                }
            }
        }
        requeued
    }

    /// The tasks `worker` currently holds leases on — last-known-state
    /// material for stall diagnostics.
    pub fn worker_leases(&self, worker: u64) -> Vec<TaskRange> {
        let mut held: Vec<TaskRange> = self
            .leases
            .values()
            .filter(|l| l.worker == worker)
            .map(|l| self.tasks[l.task as usize])
            .collect();
        held.sort_unstable_by_key(|t| t.index);
        held
    }

    /// Marks `worker`'s leases as having a result in flight (and refreshes
    /// their deadlines): expiry is suspended until the result is processed
    /// or the connection drops.
    pub fn result_incoming(&mut self, worker: u64, now: Instant, timeout: Duration) {
        for l in self.leases.values_mut().filter(|l| l.worker == worker) {
            l.deadline = now + timeout;
            l.result_in_flight = true;
            l.idle_beats = 0;
        }
    }

    /// Removes a delivered lease, returning its task and grant time (if
    /// the lease is still live — a stale id from a re-queued lease returns
    /// `None`).
    pub fn remove_lease(&mut self, lease_id: u64) -> Option<(u32, Instant)> {
        self.leases.remove(&lease_id).map(|l| (l.task, l.granted))
    }

    /// Whether a task's result has been absorbed.
    pub fn is_done(&self, task: u32) -> bool {
        self.done[task as usize]
    }

    /// Marks a task done everywhere: drops it from the pending queue and
    /// cancels any other live lease on it (a re-queue raced the original
    /// delivery), which frees its holder for new work.
    pub fn mark_done(&mut self, task: u32) {
        self.done[task as usize] = true;
        self.pending.retain(|&t| t != task);
        self.leases.retain(|_, l| l.task != task);
    }

    /// Re-queues a still-pending task (e.g. after its delivered shard
    /// failed validation).
    pub fn requeue_task(&mut self, task: u32) {
        if !self.done[task as usize] && !self.pending.contains(&task) {
            self.pending.push_front(task);
            self.requeues += 1;
        }
    }

    /// Drops every lease `worker` holds, re-queueing their unfinished
    /// tasks. Returns the number of re-queued tasks.
    pub fn requeue_worker(&mut self, worker: u64) -> usize {
        let ids: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.worker == worker)
            .map(|(&id, _)| id)
            .collect();
        let mut requeued = 0;
        for id in ids {
            let Some(l) = self.leases.remove(&id) else {
                continue;
            };
            if !self.done[l.task as usize] {
                self.pending.push_front(l.task);
                self.requeues += 1;
                requeued += 1;
            }
        }
        requeued
    }

    /// Workers holding at least one lease past its deadline (results in
    /// flight excepted). The caller is expected to treat them as dead:
    /// drop their connections and [`WorkQueue::requeue_worker`] them.
    pub fn expired_workers(&self, now: Instant) -> Vec<u64> {
        let mut workers: Vec<u64> = self
            .leases
            .values()
            .filter(|l| !l.result_in_flight && now >= l.deadline)
            .map(|l| l.worker)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(100);

    #[test]
    fn tasks_tile_the_ego_range_without_empties() {
        for (n, requested) in [(300usize, 8u32), (5, 9), (1, 4), (0, 4)] {
            let q = WorkQueue::new(n, requested);
            let mut next = 0u32;
            for i in 0..q.task_count() {
                let t = q.task(i);
                assert_eq!(t.start, next);
                assert!(t.end > t.start, "empty task {i} for n={n}");
                next = t.end;
            }
            assert_eq!(next as usize, n);
            if n == 0 {
                assert_eq!(q.task_count(), 0);
            }
        }
    }

    #[test]
    fn lease_deliver_cycle_completes() {
        let now = Instant::now();
        let mut q = WorkQueue::new(100, 4);
        let mut held = Vec::new();
        for w in 0..4u64 {
            held.push(q.lease_next(w, now, T).unwrap());
        }
        assert!(!q.has_pending());
        assert!(q.lease_next(9, now, T).is_none());
        for (id, task) in held {
            let (t, granted) = q.remove_lease(id).unwrap();
            assert_eq!(t, task.index);
            assert_eq!(granted, now);
            q.mark_done(t);
        }
        assert!((0..4).all(|t| q.is_done(t)));
        assert_eq!(q.requeues(), 0);
    }

    #[test]
    fn expiry_requeues_and_heartbeat_defers() {
        let now = Instant::now();
        let mut q = WorkQueue::new(100, 2);
        let (_id, _) = q.lease_next(1, now, T).unwrap();
        q.lease_next(2, now, T).unwrap();
        // Worker 2 heartbeats; worker 1 goes silent.
        assert_eq!(q.heartbeat(2, true, now + T, T), 0);
        let expired = q.expired_workers(now + T);
        assert_eq!(expired, vec![1]);
        assert_eq!(q.requeue_worker(1), 1);
        assert!(q.has_pending());
        assert_eq!(q.requeues(), 1);
        // The re-queued task can be re-leased, and an in-flight result
        // suppresses expiry (worker 2's ordinary lease still times out).
        let (_id3, _) = q.lease_next(3, now + T, T).unwrap();
        q.result_incoming(3, now + T, T);
        assert_eq!(q.expired_workers(now + 10 * T), vec![2]);
    }

    #[test]
    fn idle_heartbeats_detect_a_lost_lease() {
        let now = Instant::now();
        let mut q = WorkQueue::new(100, 4);
        let (id, task) = q.lease_next(1, now, T).unwrap();
        assert_eq!(q.worker_leases(1), vec![task]);
        // One idle beat could race the lease frame: nothing happens.
        assert_eq!(q.heartbeat(1, false, now, T), 0);
        assert!(q.worker_is_busy(1));
        // A busy beat resets the counter...
        assert_eq!(q.heartbeat(1, true, now, T), 0);
        assert_eq!(q.heartbeat(1, false, now, T), 0);
        // ...and the second consecutive idle beat re-queues the task.
        assert_eq!(q.heartbeat(1, false, now, T), 1);
        assert!(!q.worker_is_busy(1));
        assert!(q.worker_leases(1).is_empty());
        assert_eq!(q.requeues(), 1);
        assert!(q.remove_lease(id).is_none());
        // The task went to the *front* of the queue.
        let (_id2, task2) = q.lease_next(2, now, T).unwrap();
        assert_eq!(task2.index, task.index);
        // An in-flight result suppresses the idle counter entirely.
        q.result_incoming(2, now, T);
        assert_eq!(q.heartbeat(2, false, now, T), 0);
        assert_eq!(q.heartbeat(2, false, now, T), 0);
        assert!(q.worker_is_busy(2));
    }

    #[test]
    fn mark_done_cancels_racing_leases_and_pending_copies() {
        let now = Instant::now();
        let mut q = WorkQueue::new(10, 2);
        let (id1, task) = q.lease_next(1, now, T).unwrap();
        // Lease expires; task re-queued and re-leased to worker 2.
        q.requeue_worker(1);
        let (id2, task2) = q.lease_next(2, now, T).unwrap();
        assert_eq!(task.index, task2.index);
        // The original worker delivers anyway (stale lease id is gone).
        assert!(q.remove_lease(id1).is_none());
        assert!(q.worker_is_busy(2));
        q.mark_done(task.index);
        assert!(!q.worker_is_busy(2));
        assert!(q.remove_lease(id2).is_none());
        assert!(q.is_done(task.index));
        // requeue_task on a done task is a no-op.
        q.requeue_task(task.index);
        let remaining = q.task_count() - 1;
        let mut seen = 0;
        while q.lease_next(5, now, T).is_some() {
            seen += 1;
        }
        assert_eq!(seen, remaining);
    }
}
