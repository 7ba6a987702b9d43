//! `fillrandom`: an in-process workload on one MioDB engine with the NVM
//! timing model on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_common::stats::StatsSnapshot;
use miodb_common::{EngineReport, KvEngine};
use miodb_core::{MioDb, MioOptions, RepositoryMode};
use miodb_pmem::DeviceModel;

use crate::common::{
    judge_get, key, median, permutation, thread_count, value, HostCpu, ProcUsage, Rng, Sampler,
    Samples, Sheet, Spans, Tally, KEY_LEN, STREAM_READ_BACK,
};
use crate::{proc_layers, Args, Run};

/// Data loaded by each `fillrandom` round.
pub const DATASET_BYTES: u64 = 256 << 20;
pub const VALUE_LEN: usize = 1024;
/// One read-back get in this many asks for a key that was never written.
const ABSENT_EVERY: u64 = 10;

pub fn records() -> u64 {
    DATASET_BYTES / (KEY_LEN + VALUE_LEN) as u64
}

/// The `repro` harness geometry at 256 MiB of 1 KiB values: MemTable =
/// dataset/512, 8 elastic levels, 16 bloom bits per key, the NVM timing
/// model on, the huge-PMTable repository. Spelled out here rather than
/// taken from the harness so a harness change cannot silently change the
/// benchmark.
pub fn engine_options() -> MioOptions {
    let memtable = (DATASET_BYTES / 512).clamp(64 * 1024, 4 << 20) as usize;
    MioOptions {
        memtable_bytes: memtable,
        elastic_levels: 8,
        bloom_bits_per_key: 16,
        nvm_pool_bytes: (DATASET_BYTES * 4 + (64 << 20)) as usize,
        dram_pool_bytes: (memtable * 10).max(16 << 20),
        nvm_device: DeviceModel::nvm(),
        elastic_buffer_cap: None,
        wal_segment_bytes: memtable,
        repo_chunk_bytes: (memtable * 2).max(1 << 20),
        lazy_copy_trigger: 2,
        repository: RepositoryMode::HugePmTable,
        bloom_enabled: true,
        parallel_compaction: true,
        write_pipeline: true,
        name: "MioDB-perfbench".to_string(),
        ..MioOptions::default()
    }
}

fn open(tally: &mut Tally) -> Option<MioDb> {
    match MioDb::open(engine_options()) {
        Ok(db) => Some(db),
        Err(e) => {
            tally.failed(format!("open: {e}"));
            None
        }
    }
}

/// Times `db.wait_idle()`, counting a failure in `tally`.
pub fn settle(db: &dyn KvEngine, spans: &mut Spans, tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    if let Err(e) = spans.time("engine.wait_idle", 0, || db.wait_idle()) {
        tally.failed(format!("wait_idle: {e}"));
    }
    t0.elapsed().as_secs_f64()
}

/// Puts every record once, in a seeded order, closed loop.
struct Fill {
    put_lat: Samples,
    put_s: f64,
}

fn fill(db: &MioDb, seed: u64, spans: &mut Spans, tally: &mut Tally) -> Fill {
    let order = permutation(records(), seed);
    let mut put_lat = Samples::default();
    put_lat.0.reserve(order.len());
    let t0 = Instant::now();
    for (op, &i) in order.iter().enumerate() {
        let i = u64::from(i);
        let (k, v) = (key(i), value(seed, i, 0, VALUE_LEN));
        tally.attempted += 1;
        let c0 = Instant::now();
        let r = spans.time("engine.put", op as u64, || db.put(&k, &v));
        put_lat.push(c0.elapsed());
        if let Err(e) = r {
            tally.failed(format!("put: {e}"));
        }
    }
    Fill {
        put_lat,
        put_s: t0.elapsed().as_secs_f64(),
    }
}

/// Counter values sampled into the trace while a timed phase runs.
pub fn stats_track(db: Arc<MioDb>) -> impl Fn() -> Vec<(&'static str, f64)> + Send + 'static {
    move || {
        let s = db.stats().snapshot();
        let nvm = db.nvm_pool().used_bytes() as f64;
        vec![
            ("stats.user_mib", s.user_bytes_written as f64 / 1048576.0),
            (
                "stats.nvm_written_mib",
                s.nvm_bytes_written as f64 / 1048576.0,
            ),
            ("stats.flushes", s.flush_count as f64),
            ("stats.zero_copy_merges", s.zero_copy_compactions as f64),
            ("stats.lazy_copies", s.copy_compactions as f64),
            ("stats.interval_stall_s", s.interval_stall_ns as f64 / 1e9),
            ("stats.gets", s.gets as f64),
            ("pmem.nvm_used_mib", nvm / 1048576.0),
        ]
    }
}

/// Per-layer metrics of the write side read from the engine's public
/// counters: `d` is the `Stats` delta over the timed put phase and its
/// settling, `phase_s` the phase's wall time, `settle_s` the `wait_idle`
/// after it and `dev` the engine's NVM device model.
pub fn engine_layers(
    sheet: &mut Sheet,
    d: &StatsSnapshot,
    phase_s: f64,
    settle_s: f64,
    report: &EngineReport,
    dev: DeviceModel,
) {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let s = |ns: u64| ns as f64 / 1e9;
    sheet.set("core.settle_s", settle_s);
    sheet.set("core.lazy_copies", d.copy_compactions as f64);
    sheet.set("core.lazy_copy_s", s(d.copy_compaction_ns));
    sheet.set("core.interval_stalls", d.interval_stall_count as f64);
    sheet.set("core.interval_stall_s", s(d.interval_stall_ns));
    sheet.set(
        "core.stall_frac",
        if phase_s > 0.0 {
            s(d.interval_stall_ns) / phase_s
        } else {
            0.0
        },
    );
    sheet.set("core.cumulative_stall_s", s(d.cumulative_stall_ns));
    sheet.set("skiplist.flushes", d.flush_count as f64);
    sheet.set("skiplist.flush_s", s(d.flush_ns));
    sheet.set(
        "skiplist.flush_mib_per_s",
        d.flush_throughput_bps() / 1048576.0,
    );
    sheet.set("skiplist.swizzle_s", s(d.swizzle_ns));
    sheet.set("skiplist.zero_copy_merges", d.zero_copy_compactions as f64);
    sheet.set("skiplist.zero_copy_merge_s", s(d.zero_copy_compaction_ns));
    sheet.set(
        "pmem.nvm_write_amp",
        per(d.nvm_bytes_written, d.user_bytes_written),
    );
    sheet.set(
        "pmem.nvm_used_mib",
        report.nvm_used_bytes as f64 / 1048576.0,
    );
    sheet.set(
        "pmem.nvm_peak_mib",
        report.nvm_peak_bytes as f64 / 1048576.0,
    );
    // Modeled device time from byte totals: one latency plus the transfer
    // time of all bytes, so a lower bound on the spin-wait the model adds.
    let bytes = |b: u64| usize::try_from(b).unwrap_or(usize::MAX);
    sheet.set(
        "pmem.model_write_s",
        dev.write_delay_ns(bytes(d.nvm_bytes_written)) as f64 / 1e9,
    );
    sheet.set(
        "pmem.model_read_s",
        dev.read_delay_ns(bytes(d.nvm_bytes_read)) as f64 / 1e9,
    );
}

/// Per-layer metrics of the get path: `d` is the `Stats` delta over a
/// window of gets only.
fn get_layers(sheet: &mut Sheet, d: &StatsSnapshot) {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    sheet.set("core.level_probe_retries", d.level_probe_retries as f64);
    sheet.set("core.get_hit_rate", per(d.get_hits, d.gets));
    sheet.set("bloom.skips_per_get", per(d.bloom_skips, d.gets));
    sheet.set(
        "bloom.false_positive_rate",
        per(
            d.bloom_false_positives,
            d.bloom_false_positives + d.bloom_skips,
        ),
    );
    sheet.set("pmem.nvm_read_bytes_per_get", per(d.nvm_bytes_read, d.gets));
}

/// Reconciles the counter delta against the benchmark's own op counts, so
/// a snapshot taken in the wrong window is caught.
pub fn reconcile(tally: &mut Tally, d: &StatsSnapshot, puts: u64, gets: u64, record_bytes: u64) {
    if d.user_bytes_written != puts * record_bytes {
        tally.wrong(format!(
            "counter window: user_bytes_written delta {} != {puts} puts x {record_bytes} B",
            d.user_bytes_written
        ));
    }
    if d.gets != gets {
        tally.wrong(format!(
            "counter window: gets delta {} != {gets} gets sent",
            d.gets
        ));
    }
}

/// Reads back `n` records (1 in [`ABSENT_EVERY`] never written), each
/// written once at version 0, and checks each answer; returns the get
/// latencies and the wall time.
fn read_back(db: &MioDb, seed: u64, n: u64, tally: &mut Tally) -> (Samples, f64) {
    let mut rng = Rng::stream(seed, STREAM_READ_BACK);
    let recs = records();
    let mut lat = Samples::default();
    let t0 = Instant::now();
    for _ in 0..n {
        let absent = rng.below(ABSENT_EVERY) == 0;
        let i = if absent {
            recs + rng.below(recs)
        } else {
            rng.below(recs)
        };
        tally.attempted += 1;
        let k = key(i);
        let c0 = Instant::now();
        let r = db.get(&k);
        lat.push(c0.elapsed());
        judge_get(
            tally,
            seed,
            i,
            absent,
            r.map_err(|e| e.to_string()),
            VALUE_LEN,
            0,
            0,
        );
    }
    (lat, t0.elapsed().as_secs_f64())
}

/// One round: open a fresh engine, fill it, settle, read a sample back.
/// Returns the round's metrics and its mean put latency.
fn fill_round(seed: u64, traced: bool, run: &mut Run) -> Option<(Sheet, f64)> {
    let mut sh = Sheet::default();
    let mut spans = Spans::new(traced, run.epoch, 1);
    let t0 = Instant::now();
    let db = Arc::new(open(&mut run.tally)?);
    sh.set("setup_s", t0.elapsed().as_secs_f64());
    let sampler = traced.then(|| {
        Sampler::start(
            run.epoch,
            Duration::from_millis(100),
            stats_track(Arc::clone(&db)),
        )
    });
    let u0 = ProcUsage::now();
    let before = db.stats().snapshot();
    let f = fill(&db, seed, &mut spans, &mut run.tally);
    let settle_s = settle(&*db, &mut spans, &mut run.tally);
    let settled = db.stats().snapshot();
    let d = settled.diff(&before);
    let u1 = ProcUsage::now();
    let threads = thread_count();
    let report = db.report();
    let recs = records();
    let record_bytes = (KEY_LEN + VALUE_LEN) as u64;
    reconcile(&mut run.tally, &d, recs, 0, record_bytes);
    let (get_lat, get_s) = read_back(&db, seed, recs / 10, &mut run.tally);
    let d_get = db.stats().snapshot().diff(&settled);
    reconcile(
        &mut run.tally,
        &d_get,
        0,
        get_lat.len() as u64,
        record_bytes,
    );
    if let Some(s) = sampler {
        run.trace.counters.extend(s.finish());
    }
    run.trace.spans.append(&mut spans.spans);

    let sustained_s = f.put_s + settle_s;
    sh.set("put_kops", recs as f64 / f.put_s / 1e3);
    sh.set("sustained_put_kops", recs as f64 / sustained_s / 1e3);
    sh.set("put_p50_us", f.put_lat.pct_us(50.0));
    sh.set("put_p90_us", f.put_lat.pct_us(90.0));
    sh.set("diag.put_p99_us", f.put_lat.pct_us(99.0));
    sh.set("diag.put_p999_us", f.put_lat.pct_us(99.9));
    sh.set("get_kops", get_lat.len() as f64 / get_s / 1e3);
    sh.set("get_p50_us", get_lat.pct_us(50.0));
    sh.set("get_p90_us", get_lat.pct_us(90.0));
    sh.set("diag.get_p99_us", get_lat.pct_us(99.0));
    sh.set("diag.get_p999_us", get_lat.pct_us(99.9));
    sh.set(
        "space_amp",
        report.nvm_used_bytes as f64 / (recs * record_bytes) as f64,
    );
    engine_layers(&mut sh, &d, f.put_s, settle_s, &report, DeviceModel::nvm());
    get_layers(&mut sh, &d_get);
    proc_layers(&mut sh, &u0, &u1, sustained_s, threads);
    Some((sh, f.put_lat.mean_us()))
}

/// Fill rounds until rounds that count have taken `seconds` (at least
/// one); every metric is the median over those rounds.
fn fill_rounds(seed: u64, seconds: f64, traced: bool, run: &mut Run) -> Option<(Sheet, f64)> {
    let (mut sheets, mut means) = (Vec::new(), Vec::new());
    let mut counted_s = 0.0;
    while sheets.is_empty() || counted_s < seconds {
        let (start, t0) = (HostCpu::now(), Instant::now());
        let (sh, mean) = fill_round(seed, traced, run)?;
        if run.gate.counts(&start) {
            counted_s += t0.elapsed().as_secs_f64();
            sheets.push(sh);
            means.push(mean);
        }
    }
    run.param(
        if traced { "traced_rounds" } else { "rounds" },
        sheets.len().to_string(),
    );
    Some((Sheet::median_of(&sheets), median(&means)))
}

pub fn fillrandom(args: &Args, run: &mut Run) {
    run.param("records", records().to_string());
    run.param("value_len", VALUE_LEN.to_string());
    run.param("dataset_bytes", DATASET_BYTES.to_string());
    run.param(
        "memtable_bytes",
        engine_options().memtable_bytes.to_string(),
    );
    run.param("device_model", "nvm".to_string());
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let Some((mut sheet, plain)) = fill_rounds(args.seed, budget, false, run) else {
        return;
    };
    if args.trace {
        let Some((traced_sheet, traced)) = fill_rounds(args.seed, budget, true, run) else {
            return;
        };
        sheet = traced_sheet;
        run.overhead(plain, traced);
    }
    for (name, v) in sheet.values {
        run.sheet.set(&name, v);
    }
}
