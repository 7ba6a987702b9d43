//! Pieces every workload shares: seeded inputs, the output checker,
//! latency samples, process counters, the span recorder and the metric
//! sheet the result line is printed from.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ----- seeded inputs ---------------------------------------------------

/// splitmix64: a tiny seedable generator, so inputs depend on `--seed`
/// and nothing else.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream `tag` of `seed`: the seed is mixed before
    /// the tag goes in, so no two `(seed, tag)` pairs share a stream.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed);
        let s = r.next_u64();
        Rng::new(s ^ tag.wrapping_mul(0xD134_2543_DE82_EF95))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(n: u64, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::stream(seed, STREAM_ORDER);
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Tags of the generators' random streams. Bit 63 keeps them apart from
/// the value streams, whose tags are `index ^ version << 40`.
pub const STREAM_ORDER: u64 = 1 << 63;
pub const STREAM_READ_BACK: u64 = STREAM_ORDER | 3;
pub const STREAM_PUTS: u64 = STREAM_ORDER | 4;

pub const KEY_LEN: usize = 16;

/// Key of record `i`: fixed width, so `puts × (KEY_LEN + value_len)`
/// must equal the engine's `user_bytes_written` delta.
pub fn key(i: u64) -> Vec<u8> {
    format!("k{i:015}").into_bytes()
}

/// Value of record `i` at `version`. The first 12 bytes carry the index
/// and version; the rest is a stream derived from `(seed, i, version)`, so
/// a stale, misplaced or corrupted value never passes [`check_value`].
pub fn value(seed: u64, i: u64, version: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&i.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut rng = Rng::stream(seed, i ^ u64::from(version) << 40);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Checks that `got` is record `i`'s value at some version in `lo..=hi`
/// and returns that version.
pub fn check_value(
    seed: u64,
    i: u64,
    got: &[u8],
    len: usize,
    lo: u32,
    hi: u32,
) -> Result<u32, String> {
    if got.len() != len || len < 12 {
        return Err(format!("record {i}: value length {} != {len}", got.len()));
    }
    let idx = u64::from_le_bytes(got[..8].try_into().expect("8 bytes"));
    let ver = u32::from_le_bytes(got[8..12].try_into().expect("4 bytes"));
    if idx != i {
        return Err(format!("record {i}: holds the value of record {idx}"));
    }
    if ver < lo || ver > hi {
        return Err(format!("record {i}: version {ver} outside {lo}..={hi}"));
    }
    if got != value(seed, i, ver, len).as_slice() {
        return Err(format!("record {i}: version {ver} bytes corrupted"));
    }
    Ok(ver)
}

/// Judges one get of record `i`: a key that was never written (`absent`)
/// must miss; any other must hold its value at a version in `lo..=hi`.
/// Every workload routes its reads through here, and the start-up
/// self-check feeds it a corrupted value and a missing key.
#[allow(clippy::too_many_arguments)]
pub fn judge_get(
    tally: &mut Tally,
    seed: u64,
    i: u64,
    absent: bool,
    got: Result<Option<Vec<u8>>, String>,
    len: usize,
    lo: u32,
    hi: u32,
) {
    match (got, absent) {
        (Err(e), _) => tally.failed(format!("get record {i}: {e}")),
        (Ok(Some(_)), true) => tally.wrong(format!("record {i} was never written but was found")),
        (Ok(None), false) => tally.wrong(format!("record {i} is missing")),
        (Ok(None), true) => {}
        (Ok(Some(v)), false) => {
            tally.check(check_value(seed, i, &v, len, lo, hi));
        }
    }
}

// ----- outcome tally ---------------------------------------------------

/// Operations attempted, failed (error or refusal) and answered wrongly.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn failed(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.note(what.into());
    }

    pub fn wrong(&mut self, what: impl Into<String>) {
        self.wrong += 1;
        self.note(what.into());
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Records the outcome of an output check (`Err` counts as wrong).
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.wrong(e);
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }

    pub fn bad(&self) -> u64 {
        self.failed + self.wrong
    }
}

// ----- latency samples -------------------------------------------------

/// Raw latencies in nanoseconds. Percentiles are exact order statistics,
/// not histogram buckets, so repeated runs never read identically.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `p`-th percentile in microseconds (nearest rank); 0 when empty.
    pub fn pct_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, v.len()) - 1;
        let (_, x, _) = v.select_nth_unstable(idx);
        *x as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&x| x as f64).sum::<f64>() / self.0.len() as f64 / 1e3
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

// ----- process counters ------------------------------------------------

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Whole-process resource use, threads that already exited included.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProcUsage {
    pub cpu_s: f64,
    pub max_rss_mib: f64,
    pub nonvol_ctx_switches: u64,
}

impl ProcUsage {
    pub fn now() -> ProcUsage {
        let mut ru = RUsage::default();
        // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
        // Linux, and getrusage only writes into the struct it is given.
        let rc = unsafe { getrusage(0, &mut ru) };
        if rc != 0 {
            return ProcUsage::default();
        }
        let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
        ProcUsage {
            cpu_s: tv(ru.utime) + tv(ru.stime),
            max_rss_mib: ru.maxrss as f64 / 1024.0,
            nonvol_ctx_switches: ru.nivcsw.max(0) as u64,
        }
    }
}

/// Threads alive in this process right now.
pub fn thread_count() -> u64 {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count() as u64)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Pins the calling thread, and every thread it starts from then on, to
/// the first CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // A `cpu_set_t` of 1024 CPUs, as glibc defines it.
    let mut set = [0u64; 16];
    let size = std::mem::size_of_val(&set);
    // SAFETY: both calls read or write only the `size` bytes of `set`.
    if unsafe { sched_getaffinity(0, size, set.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = set
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or("sched_getaffinity returned no CPU")?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

// ----- host noise ------------------------------------------------------

/// A round during which the hypervisor gave more than this share of the
/// guest's CPU time to other guests does not count and is run again.
pub const STEAL_LIMIT: f64 = 0.03;
/// Most rounds one run runs again, which bounds the run's length.
pub const MAX_RERUNS: usize = 2;

/// Cumulative CPU time of the whole guest from `/proc/stat`, in ticks:
/// all of it, and the part stolen (a vCPU was ready to run while the
/// hypervisor ran another guest). Reads zeros where `/proc/stat` is
/// missing, so no round is ever judged disturbed there.
#[derive(Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return HostCpu::default();
        };
        // "cpu  user nice system idle iowait irq softirq steal guest ..."
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        if ticks.len() < 8 {
            return HostCpu::default();
        }
        HostCpu {
            total: ticks.iter().sum(),
            steal: ticks[7],
        }
    }

    /// Share of the guest's CPU time since `earlier` that was stolen.
    pub fn steal_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Drops rounds measured while the host was busy elsewhere. On a shared
/// VM the hypervisor now and then takes a quarter or more of each vCPU
/// for tens of seconds; a depth-1 round trip through thirty threads then
/// runs at half speed. The program cannot cause steal, so dropping such a
/// round removes host noise only; the output checks of a dropped round
/// still count.
#[derive(Default)]
pub struct NoiseGate {
    pub reruns: usize,
}

impl NoiseGate {
    /// Whether the round that started at `start` counts. A disturbed
    /// round does not, while the run has reruns left.
    pub fn counts(&mut self, start: &HostCpu) -> bool {
        let steal = HostCpu::now().steal_since(start);
        if steal > STEAL_LIMIT && self.reruns < MAX_RERUNS {
            self.reruns += 1;
            eprintln!(
                "[perfbench] host stole {:.1}% of the CPU; running the round again",
                steal * 100.0
            );
            false
        } else {
            true
        }
    }
}

// ----- spans and counter tracks ----------------------------------------

/// One call from the benchmark into the program.
pub struct Span {
    pub name: &'static str,
    /// The benchmark's op id: the request id shared by every span of one
    /// operation.
    pub op: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-thread span buffer. Disabled buffers record nothing, so the
/// untraced runs pay one branch per call.
pub struct Spans {
    on: bool,
    epoch: Instant,
    tid: u32,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Spans {
        Spans {
            on,
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Times `f` as span `name` of operation `op` when tracing is on.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.spans.push(Span {
            name,
            op,
            tid: self.tid,
            start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos() as u64,
        });
        r
    }

    /// Durations of every span called `name`.
    pub fn durations(spans: &[Span], name: &str) -> Samples {
        Samples(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns)
                .collect(),
        )
    }
}

/// One tick of sampled counters.
pub type CounterSample = (u64, Vec<(&'static str, f64)>);

/// Samples program counters on a fixed tick on its own thread while the
/// timed phase runs, keeping every sample in memory.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<CounterSample>>>,
}

impl Sampler {
    pub fn start(
        epoch: Instant,
        tick: Duration,
        sample: impl Fn() -> Vec<(&'static str, f64)> + Send + 'static,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                out.push((epoch.elapsed().as_nanos() as u64, sample()));
                std::thread::sleep(tick);
            }
            out
        });
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    pub fn finish(mut self) -> Vec<CounterSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().expect("counter sampler panicked"))
            .unwrap_or_default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Everything a traced run recorded, written once the run ends.
#[derive(Default)]
pub struct TraceLog {
    pub spans: Vec<Span>,
    pub counters: Vec<CounterSample>,
}

impl TraceLog {
    /// Chrome trace-event JSON: spans as complete events carrying the op
    /// id, counter samples as counter tracks.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |s: &mut String| {
            if !first {
                s.push_str(",\n");
            }
            first = false;
        };
        for sp in &self.spans {
            sep(&mut s);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{}}}}}",
                sp.name,
                sp.tid,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns as f64 / 1e3,
                sp.op
            );
        }
        for (t, vals) in &self.counters {
            for (name, v) in vals {
                sep(&mut s);
                let _ = write!(
                    s,
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"ts\":{:.3},\"args\":{{\"value\":{}}}}}",
                    *t as f64 / 1e3,
                    num(*v)
                );
            }
        }
        s.push_str("\n]}\n");
        s
    }
}

// ----- metric sheet ----------------------------------------------------

/// Every metric a run computed, by name. The result line picks the
/// end-to-end or the per-layer list out of it.
#[derive(Default)]
pub struct Sheet {
    pub values: Vec<(String, f64)>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        if let Some(slot) = self.values.iter_mut().find(|(n, _)| n == name) {
            slot.1 = v;
        } else {
            self.values.push((name.to_string(), v));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every metric of the first sheet, as its median over all sheets.
    pub fn median_of(sheets: &[Sheet]) -> Sheet {
        let mut out = Sheet::default();
        if let Some(first) = sheets.first() {
            for (name, _) in &first.values {
                let vals: Vec<f64> = sheets.iter().filter_map(|s| s.get(name)).collect();
                out.set(name, median(&vals));
            }
        }
        out
    }
}

/// Formats a metric value as a JSON number with all its digits.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_rejects_corruption_and_staleness() {
        let v = value(7, 42, 3, 64);
        assert_eq!(check_value(7, 42, &v, 64, 0, 5), Ok(3));
        assert!(check_value(7, 42, &v, 64, 4, 5).is_err(), "stale version");
        assert!(check_value(7, 43, &v, 64, 0, 5).is_err(), "wrong record");
        let mut bad = v.clone();
        bad[40] ^= 1;
        assert!(check_value(7, 42, &bad, 64, 0, 5).is_err(), "flipped bit");
        assert!(check_value(8, 42, &v, 64, 0, 5).is_err(), "other seed");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(1000, 5);
        assert_ne!(p[..10], (0..10).collect::<Vec<u32>>()[..]);
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn host_cpu_reads_proc_stat() {
        // Zeros would silently turn the noise gate off.
        let a = HostCpu::now();
        assert!(a.total > 0);
        let b = HostCpu::now();
        assert!((0.0..=1.0).contains(&b.steal_since(&a)));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let s = Samples((1..=100).map(|x| x * 1000).collect());
        assert_eq!(s.pct_us(50.0), 50.0);
        assert_eq!(s.pct_us(99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
