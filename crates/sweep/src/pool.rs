//! The sweep's scheduler: [`par_map`], a scoped pool of lanes that maps
//! a batch of independent items and returns the results in item order,
//! so anything aggregated over them is the same at every lane count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Maps `f` over `items` on at most `jobs` lanes and returns the
/// results **in item order**, whichever lane ran which item when.
///
/// The calling thread is one of the lanes, so `jobs <= 1` or a single
/// item spawns no thread; the others are scoped threads, which is why
/// `f` and the items may borrow from the caller. Lanes take items from
/// one shared queue in submission order and own the item they take, so
/// each item is dropped as soon as `f` returns. A panicking item does
/// not stop the others: once every item has run, the first panic in
/// item order is raised again with its original payload.
///
/// # Examples
///
/// ```
/// use predbranch_sweep::par_map;
///
/// let offset = 10;
/// let shifted = par_map(4, 0u64..8, |i| i * i + offset);
/// assert_eq!(shifted, vec![10, 11, 14, 19, 26, 35, 46, 59]);
/// ```
pub fn par_map<I, T, F>(jobs: usize, items: impl IntoIterator<Item = I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    let lanes = jobs.min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    // a call, not a `while let` scrutinee, so the guard is released
    // before the item runs
    let next = || {
        queue
            .lock()
            .expect("no lane panics holding the queue")
            .next()
    };
    let lane = || {
        let mut done = Vec::new();
        while let Some((index, item)) = next() {
            done.push((index, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
        let mut done = lane();
        for helper in helpers {
            done.extend(helper.join().expect("a lane catches its items' panics"));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter()
        .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn batch_results_come_back_in_submission_order() {
        // item 0 waits until item 2 has started and item 2 until item 3
        // has finished, which forces the lanes to run [0, 3] and [1, 2]
        // and to finish 1, 0, 3, 2; a serial scheduler times out here
        // instead of hanging
        let (item2_started, await_item2) = mpsc::channel();
        let (item3_finished, await_item3) = mpsc::channel();
        let (await_item2, await_item3) = (Mutex::new(await_item2), Mutex::new(await_item3));
        let wait = |signal: &Mutex<mpsc::Receiver<()>>| {
            let signal = signal.lock().unwrap();
            signal
                .recv_timeout(Duration::from_secs(10))
                .expect("the other lane ran meanwhile");
        };
        let results = par_map(2, 0..4, |i| {
            match i {
                0 => wait(&await_item2),
                2 => {
                    item2_started.send(()).unwrap();
                    wait(&await_item3);
                }
                3 => item3_finished.send(()).unwrap(),
                _ => {}
            }
            i * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_job_pool_runs_inline_without_threads() {
        let caller = thread::current().id();
        let on_caller = |ids: Vec<ThreadId>| ids.iter().all(|&id| id == caller);
        assert!(on_caller(par_map(1, 0..4, |_| thread::current().id())));
        assert!(on_caller(par_map(0, 0..4, |_| thread::current().id())));
        for jobs in [2, 8] {
            assert!(on_caller(par_map(jobs, [()], |()| thread::current().id())));
        }
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let sums = par_map(3, 0u64..4, |i| {
            par_map(3, 0..4, |j| i * 10 + j).into_iter().sum::<u64>()
        });
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn panicking_item_is_reraised_after_the_others_run() {
        for jobs in [1, 2] {
            let ran = AtomicUsize::new(0);
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_map(jobs, 0..8, |i| {
                    if i == 3 {
                        panic!("cell exploded");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }))
            .expect_err("the item's panic must reach the caller");
            assert_eq!(ran.load(Ordering::Relaxed), 7, "jobs={jobs}");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"cell exploded"));
        }
    }
}
