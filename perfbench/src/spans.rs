//! Boundary spans, recorded from the benchmark's own files.
//!
//! A span is opened by [`enter`] and closed when its guard drops. Spans nest
//! per thread; a span's *self time* is its duration minus the part its child
//! spans (same thread) cover, so the self times add up exactly to the
//! *span-covered thread time*: the sum of the outermost spans over all
//! threads. Aggregation happens when a span closes (clock reads and a few
//! adds, no allocation) and is flushed to process-wide counters whenever a
//! thread's outermost span closes, because thread-per-call workers exit right
//! after their task. Raw spans are kept only for `--trace-out`.
//!
//! Two clocks ([`Clock`]):
//!
//! * `Wall`, for programs whose threads never wait for one another. Busy time
//!   is wall time. A [`Boundary::Served`] span is the serve side of a replied
//!   remote call: it runs on a fabric node's thread while the caller's
//!   middleware span is blocked on the reply, so its duration is a
//!   (cross-thread) child of that span and is taken out of the middleware's
//!   self time and out of the covered thread time.
//! * `ThreadCpu`, for programs whose threads block on futures, monitors and
//!   replies. Every span also reads the thread's CPU clock; a layer's busy
//!   time is CPU self time, and what remains of the wall self time is time
//!   the thread waited (blocked, or runnable without a CPU). It costs a
//!   system call per clock read, so it is for programs with few spans.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers busy time is attributed to: the repo's crates, plus the
/// benchmark's own glue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Layer {
    Weave,
    Skeletons,
    Concurrency,
    Middleware,
    #[default]
    Apps,
    Bench,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Weave,
    Layer::Skeletons,
    Layer::Concurrency,
    Layer::Middleware,
    Layer::Apps,
    Layer::Bench,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Weave => "weave",
            Layer::Skeletons => "skeletons",
            Layer::Concurrency => "concurrency",
            Layer::Middleware => "middleware",
            Layer::Apps => "apps",
            Layer::Bench => "bench",
        }
    }
}

/// Where a span is recorded. The first group wraps the benchmark's own calls
/// into the program; the second is the pass-through aspects plugged in front
/// of each concern's precedence band, innermost, and on the fabric's nodes;
/// the third wraps the application closures a skeleton calls back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Boundary {
    /// One whole repetition.
    Run,
    /// Stack assembly (`ConcernStack`, plugs, executor).
    Assemble,
    /// `Proxy::construct` from the benchmark.
    Construct,
    /// The benchmark's call through a proxy handle, up to the first boundary.
    Call,
    /// A loop of proxy calls: proxy, `Args` and dispatch up to the first boundary.
    Calls,
    /// Blocked on the call's future.
    Resolve,
    /// `Executor::wait_idle`.
    WaitIdle,
    /// An application's own driver function, as a whole (`run_sieve`).
    Driver,
    /// `Pack` to `Vec` copy of the result.
    ToVec,
    Outer,
    Async,
    Partition,
    Sync,
    Distribution,
    Base,
    Served,
    /// The application's split / divide closure, called by a skeleton.
    Split,
    /// The application's combine closure, called by a skeleton.
    Combine,
    /// The application's exchange / collect closure, called by a skeleton.
    Exchange,
}

pub const BOUNDARIES: [Boundary; 19] = [
    Boundary::Run,
    Boundary::Assemble,
    Boundary::Construct,
    Boundary::Call,
    Boundary::Calls,
    Boundary::Resolve,
    Boundary::WaitIdle,
    Boundary::Driver,
    Boundary::ToVec,
    Boundary::Outer,
    Boundary::Async,
    Boundary::Partition,
    Boundary::Sync,
    Boundary::Distribution,
    Boundary::Base,
    Boundary::Served,
    Boundary::Split,
    Boundary::Combine,
    Boundary::Exchange,
];

impl Boundary {
    pub fn name(self) -> &'static str {
        match self {
            Boundary::Run => "run",
            Boundary::Assemble => "assemble",
            Boundary::Construct => "construct",
            Boundary::Call => "call",
            Boundary::Calls => "calls",
            Boundary::Resolve => "resolve",
            Boundary::WaitIdle => "wait_idle",
            Boundary::Driver => "driver",
            Boundary::ToVec => "to_vec",
            Boundary::Outer => "outer",
            Boundary::Async => "async",
            Boundary::Partition => "partition",
            Boundary::Sync => "sync",
            Boundary::Distribution => "distribution",
            Boundary::Base => "base",
            Boundary::Served => "served",
            Boundary::Split => "split",
            Boundary::Combine => "combine",
            Boundary::Exchange => "exchange",
        }
    }

    /// The layer this boundary's self time belongs to. The innermost spans
    /// ([`Boundary::Base`], [`Boundary::Served`]) hold base dispatch and the
    /// method body, which nothing separates from outside: they belong to
    /// `body`, the application where the body is a kernel and the weaver
    /// where it is empty.
    pub fn layer(self, body: Layer) -> Layer {
        match self {
            Boundary::Run => Layer::Bench,
            Boundary::Base | Boundary::Served => body,
            Boundary::Assemble
            | Boundary::Construct
            | Boundary::Call
            | Boundary::Calls
            | Boundary::ToVec
            | Boundary::Outer => Layer::Weave,
            Boundary::Resolve | Boundary::WaitIdle | Boundary::Async | Boundary::Sync => {
                Layer::Concurrency
            }
            Boundary::Partition => Layer::Skeletons,
            Boundary::Distribution => Layer::Middleware,
            Boundary::Driver | Boundary::Split | Boundary::Combine | Boundary::Exchange => {
                Layer::Apps
            }
        }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Clock {
    #[default]
    Wall,
    ThreadCpu,
}

const N: usize = BOUNDARIES.len();

/// One closed span, kept only when `--trace-out` asks for raw spans.
#[derive(Clone, Debug)]
pub struct RawSpan {
    pub rep: u32,
    /// The outermost span of this thread at the time (spans of one call on
    /// one thread share it; nothing can carry an id across threads from
    /// outside the program).
    pub root: u64,
    pub id: u64,
    pub parent: u64,
    pub boundary: Boundary,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    boundary: Boundary,
    start: u64,
    cpu_start: u64,
    children: u64,
    cpu_children: u64,
    id: u64,
}

struct ThreadState {
    open: Vec<Open>,
    self_ns: [u64; N],
    busy_ns: [u64; N],
    spans: [u64; N],
    joinpoints: u64,
    raw: Vec<RawSpan>,
    thread: u64,
}

thread_local! {
    static STATE: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            open: Vec::new(),
            self_ns: [0; N],
            busy_ns: [0; N],
            spans: [0; N],
            joinpoints: 0,
            raw: Vec::new(),
            thread: 0,
        })
    };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CPU_CLOCK: AtomicBool = AtomicBool::new(false);
static KEEP_RAW: AtomicBool = AtomicBool::new(false);
static REP: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SELF_NS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
static BUSY_NS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
static SPANS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
static JOINPOINTS: AtomicU64 = AtomicU64::new(0);
static OUTERMOST_NS: AtomicU64 = AtomicU64::new(0);
static SERVED_NS: AtomicU64 = AtomicU64::new(0);
static RAW: Mutex<Vec<RawSpan>> = Mutex::new(Vec::new());

/// Raw spans kept at most; beyond it only the aggregates grow.
const RAW_CAP: usize = 2_000_000;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time this thread has consumed, in nanoseconds.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this is compiled for).
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Without a per-thread CPU clock, busy time falls back to wall time.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    now_ns()
}

/// Turn span recording on. Off, [`enter`] is one relaxed load.
pub fn enable(clock: Clock, keep_raw: bool) {
    now_ns();
    CPU_CLOCK.store(clock == Clock::ThreadCpu, Ordering::Relaxed);
    KEEP_RAW.store(keep_raw, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

pub fn set_rep(rep: u32) {
    REP.store(rep, Ordering::Relaxed);
}

/// Guard of an open span; closes it on drop.
pub struct Span {
    active: bool,
}

pub fn enter(boundary: Boundary) -> Span {
    open(boundary, false)
}

/// [`enter`] at the first boundary a join point meets on its weaver: also
/// counts the join point.
pub fn enter_joinpoint(boundary: Boundary) -> Span {
    open(boundary, true)
}

fn open(boundary: Boundary, joinpoint: bool) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { active: false };
    }
    let id =
        if KEEP_RAW.load(Ordering::Relaxed) { NEXT_ID.fetch_add(1, Ordering::Relaxed) } else { 0 };
    let cpu_start = if CPU_CLOCK.load(Ordering::Relaxed) { thread_cpu_ns() } else { 0 };
    STATE.with(|s| {
        let s = &mut *s.borrow_mut();
        s.joinpoints += u64::from(joinpoint);
        s.open.push(Open { boundary, start: now_ns(), cpu_start, children: 0, cpu_children: 0, id })
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        let cpu_clock = CPU_CLOCK.load(Ordering::Relaxed);
        let cpu_end = if cpu_clock { thread_cpu_ns() } else { 0 };
        STATE.with(|s| {
            let s = &mut *s.borrow_mut();
            let Some(span) = s.open.pop() else { return };
            let b = span.boundary as usize;
            let dur = end.saturating_sub(span.start);
            let own = dur.saturating_sub(span.children);
            let cpu_dur = cpu_end.saturating_sub(span.cpu_start);
            s.self_ns[b] += own;
            s.busy_ns[b] += if cpu_clock { cpu_dur.saturating_sub(span.cpu_children) } else { own };
            s.spans[b] += 1;
            if KEEP_RAW.load(Ordering::Relaxed) {
                if s.thread == 0 {
                    s.thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                }
                s.raw.push(RawSpan {
                    rep: REP.load(Ordering::Relaxed),
                    root: s.open.first().map_or(span.id, |o| o.id),
                    id: span.id,
                    parent: s.open.last().map_or(0, |o| o.id),
                    boundary: span.boundary,
                    thread: s.thread,
                    start_ns: span.start,
                    end_ns: end,
                });
            }
            match s.open.last_mut() {
                Some(parent) => {
                    parent.children += dur;
                    parent.cpu_children += cpu_dur;
                }
                None => {
                    if span.boundary == Boundary::Served && !cpu_clock {
                        SERVED_NS.fetch_add(dur, Ordering::Relaxed);
                    } else {
                        OUTERMOST_NS.fetch_add(dur, Ordering::Relaxed);
                    }
                    flush(s);
                }
            }
        });
    }
}

fn flush(s: &mut ThreadState) {
    for i in 0..N {
        if s.spans[i] != 0 {
            SELF_NS[i].fetch_add(std::mem::take(&mut s.self_ns[i]), Ordering::Relaxed);
            BUSY_NS[i].fetch_add(std::mem::take(&mut s.busy_ns[i]), Ordering::Relaxed);
            SPANS[i].fetch_add(std::mem::take(&mut s.spans[i]), Ordering::Relaxed);
        }
    }
    if s.joinpoints != 0 {
        JOINPOINTS.fetch_add(std::mem::take(&mut s.joinpoints), Ordering::Relaxed);
    }
    if !s.raw.is_empty() {
        let mut raw = RAW.lock().expect("no span is recorded while this lock is held");
        let room = RAW_CAP.saturating_sub(raw.len());
        raw.extend(s.raw.drain(..).take(room));
    }
}

/// What the spans closed so far add up to.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    self_ns: [u64; N],
    busy_ns: [u64; N],
    spans: [u64; N],
    /// Join points that met a weaver's first boundary.
    pub joinpoints: u64,
    /// Sum of the outermost spans over all threads (`Wall`: served spans
    /// excluded, they are children of the callers' middleware spans).
    pub covered_ns: u64,
    /// `Wall` only: sum of the served spans.
    served_ns: u64,
}

impl Totals {
    pub fn spans(&self, boundary: Boundary) -> u64 {
        self.spans[boundary as usize]
    }

    /// Busy self time of one boundary's spans.
    pub fn boundary_busy_ns(&self, boundary: Boundary) -> u64 {
        let own = self.busy_ns[boundary as usize];
        if boundary == Boundary::Distribution {
            own.saturating_sub(self.served_ns)
        } else {
            own
        }
    }

    /// Busy self time of a layer: the sum over its boundaries.
    pub fn busy_ns(&self, layer: Layer, body: Layer) -> u64 {
        BOUNDARIES
            .iter()
            .filter(|b| b.layer(body) == layer)
            .map(|b| self.boundary_busy_ns(*b))
            .sum()
    }

    /// Time threads spent inside spans without running (`ThreadCpu` only).
    pub fn waited_ns(&self) -> u64 {
        let own: u64 = self.self_ns.iter().sum();
        let busy: u64 = self.busy_ns.iter().sum();
        own.saturating_sub(busy)
    }

    /// Busy time of every layer plus waited time; equals `covered_ns` unless
    /// served spans outlasted the middleware spans they belong to.
    pub fn attributed_ns(&self) -> u64 {
        BOUNDARIES.iter().map(|b| self.boundary_busy_ns(*b)).sum::<u64>() + self.waited_ns()
    }
}

/// Read and reset the aggregates. Call when no span is open.
pub fn take_totals() -> Totals {
    let mut t = Totals::default();
    for i in 0..N {
        t.self_ns[i] = SELF_NS[i].swap(0, Ordering::Relaxed);
        t.busy_ns[i] = BUSY_NS[i].swap(0, Ordering::Relaxed);
        t.spans[i] = SPANS[i].swap(0, Ordering::Relaxed);
    }
    t.joinpoints = JOINPOINTS.swap(0, Ordering::Relaxed);
    t.covered_ns = OUTERMOST_NS.swap(0, Ordering::Relaxed);
    t.served_ns = SERVED_NS.swap(0, Ordering::Relaxed);
    t
}

/// Take the raw spans recorded so far (empty unless `keep_raw` was set).
pub fn take_raw() -> Vec<RawSpan> {
    std::mem::take(&mut *RAW.lock().expect("no span is recorded while this lock is held"))
}

/// The recorder is process-wide: tests that record spans take this first.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        std::hint::black_box((0..20_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(31)));
    }

    #[test]
    fn self_times_add_up_to_the_covered_time() {
        let _alone = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _off = enter(Boundary::Base);
        }
        assert_eq!(take_totals().spans(Boundary::Base), 0, "disabled spans record nothing");

        // Wall clock: a served span is a child of the distribution span.
        enable(Clock::Wall, true);
        set_rep(3);
        {
            let _root = enter(Boundary::Run);
            {
                let _a = enter(Boundary::Distribution);
                spin();
                std::thread::spawn(|| {
                    let _s = enter(Boundary::Served);
                    spin();
                })
                .join()
                .unwrap();
            }
            let _b = enter_joinpoint(Boundary::Base);
        }
        disable();
        let t = take_totals();
        assert_eq!(t.joinpoints, 1);
        assert_eq!(t.spans(Boundary::Run), 1);
        assert_eq!(t.spans(Boundary::Served), 1);
        assert!(t.served_ns > 0);
        assert_eq!(t.waited_ns(), 0);
        assert_eq!(t.attributed_ns(), t.covered_ns, "busy times partition the covered time");
        let in_body = t.boundary_busy_ns(Boundary::Base) + t.served_ns;
        assert_eq!(t.busy_ns(Layer::Apps, Layer::Apps), in_body);
        assert_eq!(t.busy_ns(Layer::Apps, Layer::Weave), 0);
        assert_eq!(t.busy_ns(Layer::Weave, Layer::Weave), in_body);

        let raw = take_raw();
        assert_eq!(raw.len(), 4);
        let find = |b| raw.iter().find(|r| r.boundary == b).unwrap();
        assert_eq!(find(Boundary::Distribution).parent, find(Boundary::Run).id);
        assert_eq!(find(Boundary::Base).root, find(Boundary::Run).id);
        assert_eq!(find(Boundary::Run).parent, 0);
        assert_ne!(find(Boundary::Served).thread, find(Boundary::Run).thread);
        assert_eq!(find(Boundary::Base).rep, 3);

        // Thread CPU clock: time asleep is waited, not busy.
        enable(Clock::ThreadCpu, false);
        {
            let _root = enter(Boundary::Run);
            let _w = enter(Boundary::Resolve);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        disable();
        let t = take_totals();
        assert_eq!(t.attributed_ns(), t.covered_ns);
        if cfg!(target_os = "linux") {
            assert!(t.waited_ns() >= 15_000_000, "the sleep is waited time: {t:?}");
            assert!(t.busy_ns(Layer::Concurrency, Layer::Apps) < 15_000_000);
        }
    }
}
