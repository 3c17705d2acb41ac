//! Fork-join over fixed-grain chunks on scoped threads.
//!
//! [`run_chunked`] splits `0..n` into chunks of `grain` items. The calling
//! thread and up to `parallelism - 1` threads spawned in a
//! `std::thread::scope` claim chunks from a shared atomic cursor (dynamic
//! self-scheduling), so skewed per-item costs (power-law ego networks)
//! re-balance automatically. Each participant returns its `(chunk, output)`
//! pairs through its join handle and the caller places them by chunk index,
//! making the result independent of the number of participants and of
//! scheduling order. The scope joins every thread before the call returns,
//! which is what lets chunks borrow the caller's data without `unsafe`.

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Cached handles into the global recorder — looked up once, recorded
/// into lock-free forever after, so instrumentation never serializes the
/// chunk loop.
struct PoolMetrics {
    /// Chunks executed (identical across thread counts for the same work).
    chunks: locec_obs::Counter,
    /// Chunks claimed by a participant other than the calling thread.
    steals: locec_obs::Counter,
    /// Total nanoseconds participants spent inside chunk bodies.
    busy_nanos: locec_obs::Counter,
    /// Per-chunk latency distribution.
    chunk_nanos: locec_obs::Histogram,
    /// Calls granted more than one participant (including nested calls,
    /// which then run inline).
    broadcasts: locec_obs::Counter,
}

impl PoolMetrics {
    fn get() -> &'static PoolMetrics {
        static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let rec = locec_obs::Recorder::global();
            PoolMetrics {
                chunks: rec.counter("pool.chunks"),
                steals: rec.counter("pool.steals"),
                busy_nanos: rec.counter("pool.busy_nanos"),
                chunk_nanos: rec.histogram("pool.chunk_nanos"),
                broadcasts: rec.counter("pool.broadcasts"),
            }
        })
    }

    fn record_chunk(&self, participant: usize, start: Instant) {
        let nanos = locec_obs::metrics::saturating_nanos(start);
        self.chunks.incr();
        if participant != 0 {
            self.steals.incr();
        }
        self.busy_nanos.add(nanos);
        self.chunk_nanos.record(nanos);
    }
}

thread_local! {
    /// True while this thread runs chunks; a nested [`run_chunked`] from
    /// inside a chunk runs inline instead of multiplying threads.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running chunks until dropped. Restoring on
/// drop (not after the loop) keeps the mark right when a chunk unwinds.
struct InChunk(bool);

impl InChunk {
    fn enter() -> Self {
        InChunk(IN_CHUNK.replace(true))
    }
}

impl Drop for InChunk {
    fn drop(&mut self) {
        IN_CHUNK.set(self.0);
    }
}

/// Parallel map over `0..n` in chunks of `grain` items: `f` is called once
/// per chunk with the chunk's item range, chunks are claimed dynamically by
/// up to `parallelism` participants, and the outputs are returned in chunk
/// order. The result is therefore identical for every `parallelism`
/// (including 1) — only wall-clock time changes. A panic in any chunk is
/// re-raised here once every participant has stopped.
pub fn run_chunked<T, F>(n: usize, parallelism: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let metrics = PoolMetrics::get();
    let grain = grain.max(1);
    let num_chunks = n.div_ceil(grain);
    // `parallelism` is an upper bound, not a demand: participants beyond
    // the machine's concurrency only timeslice each other on the same
    // cores (measurably slower for CPU-bound chunks), so cap there. Chunk
    // layout is fixed by `n` and `grain` alone, so this changes scheduling
    // only — never results.
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut participants = parallelism.min(hw).min(num_chunks).max(1);
    if participants > 1 {
        metrics.broadcasts.incr();
        if IN_CHUNK.get() {
            participants = 1;
        }
    }

    // Relaxed suffices: the cursor only hands out chunk indices, and the
    // outputs reach the caller through the joins, which synchronize.
    let cursor = AtomicUsize::new(0);
    let work = |participant: usize| {
        let _in_chunk = InChunk::enter();
        let mut done = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= num_chunks {
                return done;
            }
            let t0 = Instant::now();
            done.push((c, f(c * grain..((c + 1) * grain).min(n))));
            metrics.record_chunk(participant, t0);
        }
    };
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = (1..participants)
            .map(|p| scope.spawn(move || work(p)))
            .collect();
        let mut parts = vec![work(0)];
        for helper in helpers {
            parts.push(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        parts
    });

    let mut slots: Vec<Option<T>> = (0..num_chunks).map(|_| None).collect();
    for (c, out) in parts.into_iter().flatten() {
        slots[c] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn hardware_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn chunked_results_are_in_item_order() {
        let out = run_chunked(100, 4, 7, |r| r.map(|i| i * i).collect::<Vec<_>>());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_parallelism_levels() {
        // 257 items span many chunks, 16 items exactly one, 0 items none.
        for n in [257, 16, 0] {
            let run = |p: usize| {
                run_chunked(n, p, 16, |r| {
                    (r.start, r.map(|i| i as u64 * 31).sum::<u64>())
                })
            };
            let base = run(1);
            assert_eq!(base.len(), n.div_ceil(16));
            for p in [2, 3, 8, 64] {
                assert_eq!(run(p), base, "n {n}, parallelism {p} diverged");
            }
        }
    }

    #[test]
    fn skewed_chunks_all_complete() {
        // One chunk vastly heavier than the rest: dynamic scheduling must
        // still produce all outputs.
        let out = run_chunked(32, 3, 1, |r| {
            let i = r.start;
            if i == 0 {
                (0..200_000u64).sum::<u64>() + i as u64
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 32);
        assert_eq!(out[5], 5);
    }

    #[test]
    fn zero_items_and_zero_workers() {
        let empty: Vec<u32> = run_chunked(0, 4, 8, |_| 1u32);
        assert!(empty.is_empty());
        // Parallelism 0 means no helpers: the caller runs every chunk.
        let inline = run_chunked(10, 0, 4, |r| r.len() as u32);
        assert_eq!(inline, vec![4, 4, 2]);
    }

    #[test]
    fn distinct_threads_never_exceed_available_parallelism() {
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        let record = || {
            seen.lock().unwrap().insert(std::thread::current().id());
        };
        run_chunked(64, 64, 1, |_| {
            record();
            // Nested calls run inline, so they add no threads either.
            run_chunked(8, 64, 1, |_| record());
        });
        let distinct = seen.into_inner().unwrap().len();
        assert!(
            (1..=hardware_threads()).contains(&distinct),
            "{distinct} threads ran chunks on a {}-thread machine",
            hardware_threads()
        );
    }

    #[test]
    fn nested_broadcast_runs_inline() {
        let out = run_chunked(4, 4, 1, |_| {
            let outer = std::thread::current().id();
            let inner = run_chunked(8, 8, 1, |_| std::thread::current().id());
            inner.iter().all(|&id| id == outer)
        });
        assert_eq!(out, vec![true; 4]);
    }

    #[test]
    fn panic_in_task_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_chunked(16, 4, 1, |r| {
                if r.start == 7 {
                    panic!("boom");
                }
                r.start
            })
        }));
        let payload = result.expect_err("the chunk's panic reaches the caller");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        // Later calls are unaffected.
        let ok = run_chunked(8, 4, 2, |r| r.start);
        assert_eq!(ok, vec![0, 2, 4, 6]);
    }

    #[test]
    fn caller_fans_out_again_after_its_chunk_panicked() {
        // Every chunk panics, so each participant panics in the first chunk
        // it claims — the calling thread included.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_chunked::<(), _>(2, 2, 1, |_| panic!("boom"))
        }));
        assert!(result.is_err());
        // Each chunk waits for the other's thread, so a second thread must
        // claim one. Had the in-chunk mark survived the unwind, this call
        // would run inline on one thread, and the waits would time out.
        let want = hardware_threads().min(2);
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        let arrived = Condvar::new();
        run_chunked(2, 2, 1, |_| {
            let mut ids = seen.lock().unwrap();
            ids.insert(std::thread::current().id());
            arrived.notify_all();
            let timeout = Duration::from_secs(10);
            drop(arrived.wait_timeout_while(ids, timeout, |ids| ids.len() < want));
        });
        assert_eq!(seen.into_inner().unwrap().len(), want);
    }

    #[test]
    fn concurrent_broadcasts_attribute_panics_to_their_own_job() {
        // Two threads calling at once: each sees only its own outputs and
        // its own panics.
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                for i in 0..200usize {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        run_chunked(16, 3, 4, |r| {
                            if r.start == 4 {
                                panic!("job {i} boom");
                            }
                            r.start
                        })
                    }));
                    let payload = r.expect_err("the job's own panic propagates");
                    assert_eq!(panic_message(payload.as_ref()), format!("job {i} boom"));
                }
            });
            let clean = scope.spawn(|| {
                for i in 0..200usize {
                    let out = run_chunked(16, 3, 4, |r| r.start + i);
                    assert_eq!(out, vec![i, 4 + i, 8 + i, 12 + i]);
                }
            });
            panicker.join().expect("panicking caller thread");
            clean
                .join()
                .expect("clean caller must never observe a foreign panic");
        });
    }
}
