//! The shard pool: the one fan-out of the query and update phases.
//!
//! A run's thread budget `b` is held for the run's life as `b − 1` helper
//! threads named `brace-shard`, started with the pool and parked between
//! fan-outs, so a tick pays no thread start: the superstep's synchronisation
//! term is a wake-up, not a spawn. A fan-out cuts its items into at most `b`
//! contiguous groups (the same balanced split at every call); helper `t`
//! always runs group `t`, and the calling thread runs the last group instead
//! of idling at the join. Item → result mapping is positional, so scheduling
//! cannot affect any merge order. A budget of one starts no thread and every
//! fan-out is a plain loop on the caller's thread.
//!
//! A helper without work parks at once, and so does the caller waiting for
//! its helpers: an idle pool holds no CPU. (A 50 µs spin before parking
//! measured at parity with plain parking on `serve-mix`, so there is none.)

use crate::executor::shard_range;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

type Payload = Box<dyn Any + Send>;

/// The items a fan-out's helpers share: each takes its own group's
/// disjoint range (see [`ShardPool::for_each`]).
struct Items<T>(*mut T);

// SAFETY: a helper reaches only its own group's items through the pointer,
// and the items are `Send`.
unsafe impl<T: Send> Sync for Items<T> {}

/// A fan-out's work as a helper sees it: run group `t`. The lifetime is
/// erased; see the `SAFETY` argument in [`ShardPool::for_each`].
type Task = &'static (dyn Fn(usize) + Sync);

/// Lock a mutex no thread ever panics while holding (a helper's group runs
/// with no lock held), so poisoning cannot happen and the fan-out has no
/// panic path between posting work and collecting its reports.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Park until `ready()`. Whoever makes `ready()` true unparks this thread
/// afterwards, so no wake-up is lost (an `unpark` before the `park` makes it
/// return at once), and a spurious return re-checks.
fn wait(ready: impl Fn() -> bool) {
    while !ready() {
        thread::park();
    }
}

/// A run's thread budget, held as parked helper threads; see the module docs.
/// Dropping the pool joins every helper.
#[derive(Default)]
pub struct ShardPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

/// What the caller and the helpers share.
#[derive(Default)]
struct Shared {
    /// One slot per helper, indexed like `ShardPool::helpers`.
    slots: Vec<Slot>,
    /// Helpers that have not yet reported on the current fan-out. The last
    /// one to report (a `Release` decrement) unparks the caller, whose
    /// `Acquire` read of zero makes every helper's writes to its items
    /// visible.
    pending: AtomicUsize,
    /// Set once, by `Drop`: every helper exits.
    closing: AtomicBool,
}

/// One helper's mailbox.
#[derive(Default)]
struct Slot {
    /// The group posted to this helper and not yet taken.
    job: Mutex<Option<Job>>,
    /// `job` was filled (`Release`, after the fill): what the helper polls.
    posted: AtomicBool,
    /// The panic the helper's group raised in the current fan-out.
    panic: Mutex<Option<Payload>>,
}

struct Job {
    task: Task,
    /// The fan-out's calling thread, unparked by the last report.
    caller: Thread,
}

impl ShardPool {
    /// A pool for the thread budget `parallelism` (`0` = one thread per
    /// available core): `budget − 1` helper threads, none for a budget of
    /// one.
    pub fn new(parallelism: usize) -> Self {
        let budget = match parallelism {
            0 => thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let helpers = budget - 1;
        let shared = Arc::new(Shared { slots: (0..helpers).map(|_| Slot::default()).collect(), ..Shared::default() });
        let helpers = (0..helpers)
            .map(|t| {
                let shared = Arc::clone(&shared);
                #[cfg(test)]
                tests::STARTED.with(|started| started.set(started.get() + 1));
                thread::Builder::new()
                    .name("brace-shard".into())
                    .spawn(move || helper(&shared, t))
                    .expect("cannot start a shard helper thread")
            })
            .collect();
        ShardPool { shared, helpers }
    }

    /// The thread budget: the helpers and the calling thread.
    pub fn budget(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Run `run(i, &mut items[i])` for every item `i`, in up to
    /// [`budget`](Self::budget) contiguous groups: group `t` on helper `t`,
    /// the last on the calling thread. Returns once every group has finished.
    /// A panic in `run` reaches the caller with its own payload: the calling
    /// thread's group's, else the lowest helper's; the pool stays usable.
    pub fn for_each<T: Send>(&mut self, items: &mut [T], run: impl Fn(usize, &mut T) + Sync) {
        let k = items.len();
        let groups = self.budget().min(k).max(1);
        let (head, last) = items.split_at_mut(shard_range(k, groups, groups - 1).start);
        let run = &run;
        let mut own =
            move || last.iter_mut().zip(shard_range(k, groups, groups - 1)).for_each(|(item, i)| run(i, item));
        if groups == 1 {
            return own();
        }
        // Group `t < groups − 1` is `head[shard_range(k, groups, t)]`.
        let head = Items(head.as_mut_ptr());
        let task = |t: usize| {
            let (head, range) = (&head, shard_range(k, groups, t));
            // SAFETY: the groups' ranges are disjoint and lie in `head`, which
            // this frame borrows mutably and touches nowhere else during the
            // fan-out; helper `t` alone runs group `t`, once per fan-out.
            let part = unsafe { std::slice::from_raw_parts_mut(head.0.add(range.start), range.len()) };
            part.iter_mut().zip(range).for_each(|(item, i)| run(i, item));
        };
        let task: &(dyn Fn(usize) + Sync + '_) = &task;
        // SAFETY: `task` borrows `head`, `run` and `items` from this frame,
        // and a helper calls it only between taking its job and decrementing
        // `pending`, touching nothing of it afterwards. This function neither
        // returns nor unwinds before `pending` reads zero: `pending` is set
        // before any job is posted, nothing between the posting and the wait
        // can panic (`lock` cannot, `unpark` does not), the caller's own
        // group runs under `catch_unwind`, and each helper reports even when
        // its group panics. `&mut self` excludes a second fan-out meanwhile.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), Task>(task) };
        let shared = &*self.shared;
        let caller = thread::current();
        shared.pending.store(groups - 1, Ordering::Relaxed);
        for (t, helper) in self.helpers[..groups - 1].iter().enumerate() {
            let slot = &shared.slots[t];
            *lock(&slot.job) = Some(Job { task, caller: caller.clone() });
            slot.posted.store(true, Ordering::Release);
            helper.thread().unpark();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(own));
        wait(|| shared.pending.load(Ordering::Acquire) == 0);
        let helper_panics: Vec<Payload> =
            shared.slots[..groups - 1].iter().filter_map(|s| lock(&s.panic).take()).collect();
        if let Some(payload) = own.err().into_iter().chain(helper_panics).next() {
            panic::resume_unwind(payload);
        }
    }
}

/// Helper `t`'s life: wait for a job, run its group, report; exit on close.
fn helper(shared: &Shared, t: usize) {
    let slot = &shared.slots[t];
    loop {
        wait(|| slot.posted.load(Ordering::Acquire) || shared.closing.load(Ordering::Acquire));
        if !slot.posted.swap(false, Ordering::Acquire) {
            return;
        }
        // The task is dead before the report: the caller may return then.
        let caller = {
            let Job { task, caller } = lock(&slot.job).take().expect("a posted slot holds its job");
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(t))) {
                *lock(&slot.panic) = Some(payload);
            }
            caller
        };
        if shared.pending.fetch_sub(1, Ordering::Release) == 1 {
            caller.unpark();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.closing.store(true, Ordering::Release);
        for helper in self.helpers.drain(..) {
            helper.thread().unpark();
            // A helper catches every panic of its groups, so its thread
            // cannot have panicked; a panic here would abort an unwind.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;

    thread_local! {
        /// Helper threads started by pools built on this thread.
        pub(crate) static STARTED: Cell<usize> = const { Cell::new(0) };
    }

    fn started() -> usize {
        STARTED.with(Cell::get)
    }

    /// One pool, reused over fan-outs of many lengths — fewer items than
    /// helpers, none, and many — runs every item exactly once, with its own
    /// index, and the calling thread runs the last group itself.
    #[test]
    fn a_reused_pool_runs_every_item_once_at_its_index_and_the_last_group_inline() {
        let caller = thread::current().id();
        for budget in 1..=4 {
            let mut pool = ShardPool::new(budget);
            assert_eq!(pool.budget(), budget);
            for k in [0usize, 1, 2, 5, 7, 3, 64, 1, 0, 9] {
                // Per item: (runs, index it was called with, thread it ran on).
                let mut items = vec![(0u32, usize::MAX, None); k];
                pool.for_each(&mut items, |i, item| {
                    item.0 += 1;
                    item.1 = i;
                    item.2 = Some(thread::current().id());
                });
                let groups = budget.min(k).max(1);
                for (i, &(runs, seen, tid)) in items.iter().enumerate() {
                    assert_eq!((runs, seen), (1, i), "item {i} of {k} at budget {budget}");
                    let inline = shard_range(k, groups, groups - 1).contains(&i);
                    assert_eq!(tid == Some(caller), inline, "item {i} of {k} at budget {budget}");
                }
            }
        }
    }

    /// A panic in a helper's group and one in the caller's group each reach
    /// the caller with their own message, and the pool works after each.
    #[test]
    fn a_groups_panic_reaches_the_caller_and_the_pool_lives_on() {
        let mut pool = ShardPool::new(3);
        for (bad, msg) in [(0, "helper group gave up"), (5, "caller group gave up"), (3, "middle group gave up")] {
            let mut items = [0u8; 6];
            let run = || pool.for_each(&mut items, |i, _| assert_ne!(i, bad, "{msg}"));
            let payload = panic::catch_unwind(AssertUnwindSafe(run)).unwrap_err();
            assert!(brace_common::panic_message(payload.as_ref()).contains(msg), "item {bad}");
            let mut items = [0u8; 6];
            pool.for_each(&mut items, |i, item| *item = i as u8 + 1);
            assert_eq!(items, [1, 2, 3, 4, 5, 6]);
        }
        // Both at once: the caller's payload wins.
        let mut items = [0u8; 6];
        let run = || pool.for_each(&mut items, |i, _| assert!(i != 0 && i != 5, "item {i} gave up"));
        let payload = panic::catch_unwind(AssertUnwindSafe(run)).unwrap_err();
        assert!(brace_common::panic_message(payload.as_ref()).contains("item 5 gave up"));
    }

    /// Dropping the pool joins every helper before `drop` returns: each
    /// helper's thread-local destructors, which run as its thread exits,
    /// have run by then.
    #[test]
    fn dropping_the_pool_joins_every_helper() {
        struct OnExit(Arc<AtomicUsize>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: Cell<Option<OnExit>> = const { Cell::new(None) };
        }
        let exited = Arc::new(AtomicUsize::new(0));
        let mut pool = ShardPool::new(4);
        let caller = thread::current().id();
        pool.for_each(&mut [(); 4], |_, _| {
            if thread::current().id() != caller {
                EXIT.with(|exit| exit.set(Some(OnExit(Arc::clone(&exited)))));
            }
        });
        assert_eq!(exited.load(Ordering::SeqCst), 0);
        drop(pool);
        assert_eq!(exited.load(Ordering::SeqCst), 3);
    }

    /// A budget of one starts no thread and runs every group inline.
    #[test]
    fn budget_one_starts_no_thread() {
        let before = started();
        let mut pool = ShardPool::new(1);
        let caller = thread::current().id();
        let mut items = [None; 9];
        pool.for_each(&mut items, |_, item| *item = Some(thread::current().id()));
        assert!(items.iter().all(|&tid| tid == Some(caller)));
        assert_eq!(started(), before);
        drop(ShardPool::new(3));
        assert_eq!(started(), before + 2, "the count sees a pool's helpers");
    }

    /// A `Simulation` built with `.parallelism(1)` starts no thread and runs
    /// every query and update on the caller's thread; the same run at
    /// `.parallelism(2)`, three shards wide, starts one helper and uses it.
    #[test]
    fn a_single_threaded_simulation_starts_no_thread() {
        use crate::{Agent, AgentRef, AgentSchema, Behavior, EffectWriter, Neighbors, Simulation, UpdateCtx};
        use brace_common::{AgentId, DetRng, Vec2};
        use std::collections::HashSet;
        use std::thread::ThreadId;

        type Seen = Arc<Mutex<HashSet<ThreadId>>>;
        struct OnThread(AgentSchema, Seen);
        impl OnThread {
            fn note(&self) {
                self.1.lock().unwrap().insert(thread::current().id());
            }
        }
        impl Behavior for OnThread {
            fn schema(&self) -> &AgentSchema {
                &self.0
            }
            fn query(&self, _: AgentRef<'_>, _: &Neighbors<'_>, _: &mut EffectWriter<'_>, _: &mut DetRng) {
                self.note();
            }
            fn update(&self, _: &mut Agent, _: &mut UpdateCtx<'_>) {
                self.note();
            }
        }
        let run = |parallelism| {
            let schema = AgentSchema::builder("OnThread").visibility(1.0).reachability(1.0).build().unwrap();
            let n = 2 * crate::executor::SHARD_ROWS + 1;
            let agents =
                (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64, 0.0), &schema)).collect();
            let seen = Seen::default();
            let before = started();
            let mut sim = Simulation::builder(OnThread(schema, Arc::clone(&seen)))
                .agents(agents)
                .parallelism(parallelism)
                .build();
            sim.as_mut().unwrap().run(2);
            drop(sim);
            let seen = seen.lock().unwrap().clone();
            (started() - before, seen)
        };
        let caller = thread::current().id();
        assert_eq!(run(1), (0, HashSet::from([caller])));
        let (helpers, seen) = run(2);
        assert_eq!((helpers, seen.len()), (1, 2));
        assert!(seen.contains(&caller));
    }
}
