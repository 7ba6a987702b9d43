//! MioDB benchmark: two workloads, measured from outside the program.
//!
//! ```text
//! miodb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--out <dir>] [--meta <json>]
//! ```
//!
//! The benchmark times its own calls into public functions
//! (`KvEngine::put/get/wait_idle`, `KvClient::send/flush/recv`) and, for
//! work on the program's own threads, takes deltas of the public counters
//! around the timed phase. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` a separate traced run records
//! a span per call plus sampled counter tracks, and the line carries the
//! per-layer metrics. Every run writes a result file with the run's
//! metadata under `--out`. See `README.md` next to this file.

mod common;
mod engine;
mod net;

use std::fmt::Write as _;
use std::time::Instant;

use common::{
    jstr, judge_get, nproc, num, value, HostCpu, NoiseGate, ProcUsage, Sheet, Tally, TraceLog,
};

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("put_kops", "kop/s"),
    ("sustained_put_kops", "kop/s"),
    ("get_kops", "kop/s"),
    ("put_p50_us", "us"),
    ("put_p90_us", "us"),
    ("get_p50_us", "us"),
    ("get_p90_us", "us"),
    ("space_amp", "ratio"),
    ("rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, named after the layer's crate.
/// Layers a workload bypasses read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.settle_s", "s"),
    ("core.lazy_copies", "count"),
    ("core.lazy_copy_s", "s"),
    ("core.interval_stalls", "count"),
    ("core.interval_stall_s", "s"),
    ("core.stall_frac", "ratio"),
    ("core.cumulative_stall_s", "s"),
    ("core.level_probe_retries", "count"),
    ("core.get_hit_rate", "ratio"),
    ("skiplist.flushes", "count"),
    ("skiplist.flush_s", "s"),
    ("skiplist.flush_mib_per_s", "MiB/s"),
    ("skiplist.swizzle_s", "s"),
    ("skiplist.zero_copy_merges", "count"),
    ("skiplist.zero_copy_merge_s", "s"),
    ("bloom.skips_per_get", "count"),
    ("bloom.false_positive_rate", "ratio"),
    ("pmem.nvm_write_amp", "ratio"),
    ("pmem.nvm_read_bytes_per_get", "B"),
    ("pmem.nvm_used_mib", "MiB"),
    ("pmem.nvm_peak_mib", "MiB"),
    ("pmem.model_write_s", "s"),
    ("pmem.model_read_s", "s"),
    ("server.get_p50_us", "us"),
    ("server.get_p99_us", "us"),
    ("server.put_p50_us", "us"),
    ("server.put_p99_us", "us"),
    ("server.outside_p50_us", "us"),
    ("server.outside_p99_us", "us"),
    ("server.backpressure_events", "count"),
    ("client.send_p99_us", "us"),
    ("client.recv_wait_p50_us", "us"),
    ("client.retries", "count"),
    ("client.timeouts", "count"),
    ("client.reconnects", "count"),
    ("client.backpressure", "count"),
    ("repl.lag_p50_us", "us"),
    ("repl.lag_p99_us", "us"),
    ("repl.follower_gap", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.threads", "count"),
    ("proc.nonvol_ctx_switches", "count"),
    ("proc.host_steal_frac", "ratio"),
    ("driver.error_rate", "ratio"),
    ("driver.rounds_rerun", "count"),
    ("diag.put_p99_us", "us"),
    ("diag.get_p99_us", "us"),
    ("diag.put_p999_us", "us"),
    ("diag.get_p999_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

const WORKLOADS: &[&str] = &["fillrandom", "replicated_put"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: String,
    pub meta: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: miodb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>] [--meta <json>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".to_string(),
        meta: "{}".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => args.workload = v.clone(),
            "--seed" => args.seed = v.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = v.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
            }
            "--trace" => {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--out" => args.out = v.clone(),
            "--meta" => args.meta = v.clone(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// One run's measurements, outcome tally, parameters and trace.
pub struct Run {
    pub sheet: Sheet,
    pub tally: Tally,
    pub params: Vec<(String, String)>,
    pub trace: TraceLog,
    /// Zero of every span and counter timestamp.
    pub epoch: Instant,
    /// Rounds run again because the host was busy elsewhere.
    pub gate: NoiseGate,
}

impl Run {
    pub fn param(&mut self, name: &str, v: String) {
        self.params.push((name.to_string(), v));
    }

    /// Tracing overhead: the traced pass's mean main-op latency against
    /// the untraced pass's, in percent.
    pub fn overhead(&mut self, plain_mean_us: f64, traced_mean_us: f64) {
        let pct = if plain_mean_us > 0.0 {
            (traced_mean_us / plain_mean_us - 1.0) * 100.0
        } else {
            0.0
        };
        self.sheet.set("trace.overhead_pct", pct);
    }
}

/// `proc.*` metrics over a timed phase of `wall_s` seconds.
pub fn proc_layers(sheet: &mut Sheet, u0: &ProcUsage, u1: &ProcUsage, wall_s: f64, threads: u64) {
    let cpu = u1.cpu_s - u0.cpu_s;
    sheet.set("proc.cpu_s", cpu);
    sheet.set(
        "proc.cpu_util",
        if wall_s > 0.0 {
            cpu / (wall_s * nproc() as f64)
        } else {
            0.0
        },
    );
    sheet.set("proc.threads", threads as f64);
    sheet.set(
        "proc.nonvol_ctx_switches",
        u1.nonvol_ctx_switches
            .saturating_sub(u0.nonvol_ctx_switches) as f64,
    );
}

/// Shows the checker catches what it must before any result is trusted:
/// a corrupted value, a stale version, a missing key and a never-written
/// key that is found.
fn self_check() -> Result<(), String> {
    let mut t = Tally::default();
    let good = value(11, 3, 2, 64);
    judge_get(&mut t, 11, 3, false, Ok(Some(good.clone())), 64, 2, 2);
    if t.bad() != 0 {
        return Err("the checker rejected a correct value".into());
    }
    let mut corrupt = good.clone();
    corrupt[30] ^= 0x40;
    let cases: [(bool, Option<Vec<u8>>, u32); 4] = [
        (false, Some(corrupt), 2),
        (false, Some(good.clone()), 3),
        (false, None, 2),
        (true, Some(good), 0),
    ];
    for (n, (absent, got, lo)) in cases.into_iter().enumerate() {
        let mut t = Tally::default();
        judge_get(&mut t, 11, 3, absent, Ok(got), 64, lo, lo.max(2));
        if t.wrong != 1 {
            return Err(format!("the checker accepted bad answer #{n}"));
        }
    }
    Ok(())
}

fn result_line(correct: bool, tally: &Tally, sheet: &Sheet, list: &[(&str, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = sheet.get(name).unwrap_or(0.0);
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            jstr(name),
            num(v),
            jstr(unit)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.attempted.max(1),
        tally.bad()
    )
}

fn result_file(args: &Args, run: &Run, correct: bool) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", jstr(&args.workload));
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", num(args.seconds));
    let _ = writeln!(s, "  \"trace\": {},", u8::from(args.trace));
    let _ = writeln!(s, "  \"meta\": {},", args.meta);
    let params: Vec<String> = run
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
        .collect();
    let _ = writeln!(s, "  \"params\": {{{}}},", params.join(", "));
    let _ = writeln!(s, "  \"correct\": {correct},");
    let t = &run.tally;
    let _ = writeln!(
        s,
        "  \"attempted\": {}, \"failed\": {}, \"wrong\": {},",
        t.attempted, t.failed, t.wrong
    );
    let notes: Vec<String> = t.notes.iter().map(|n| jstr(n)).collect();
    let _ = writeln!(s, "  \"check_failures\": [{}],", notes.join(", "));
    let unit = |n: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(m, _)| *m == n)
            .map_or("", |(_, u)| u)
    };
    let metrics: Vec<String> = run
        .sheet
        .values
        .iter()
        .map(|(k, v)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                jstr(k),
                num(*v),
                jstr(unit(k))
            )
        })
        .collect();
    let _ = writeln!(s, "  \"metrics\": {{\n{}\n  }}", metrics.join(",\n"));
    s.push_str("}\n");
    s
}

fn main() {
    let args = parse_args();
    if let Err(e) = self_check() {
        eprintln!("[perfbench] self-check failed: {e}");
        std::process::exit(1);
    }
    let mut run = Run {
        sheet: Sheet::default(),
        tally: Tally::default(),
        params: Vec::new(),
        trace: TraceLog::default(),
        epoch: Instant::now(),
        gate: NoiseGate::default(),
    };
    let host0 = HostCpu::now();
    run.param("nproc", nproc().to_string());
    // Layers a workload bypasses keep these zeros.
    for (name, _) in PER_LAYER {
        run.sheet.set(name, 0.0);
    }
    match args.workload.as_str() {
        "fillrandom" => engine::fillrandom(&args, &mut run),
        "replicated_put" => net::replicated_put(&args, &mut run),
        _ => unreachable!("workload validated in parse_args"),
    }
    let sheet = &mut run.sheet;
    sheet.set("rss_mib", ProcUsage::now().max_rss_mib);
    let t = &run.tally;
    let error_rate = if t.attempted == 0 {
        1.0
    } else {
        t.bad() as f64 / t.attempted as f64
    };
    sheet.set("driver.error_rate", error_rate);
    sheet.set("driver.rounds_rerun", run.gate.reruns as f64);
    sheet.set("proc.host_steal_frac", HostCpu::now().steal_since(&host0));
    sheet.set("trace.spans", run.trace.spans.len() as f64);

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = t.bad() == 0 && t.attempted > 0;
    if !args.trace {
        for (name, _) in END_TO_END {
            if run.sheet.get(name).unwrap_or(0.0) == 0.0 {
                eprintln!("[perfbench] end-to-end metric {name} was not measured");
                correct = false;
            }
        }
    }

    let stem = format!(
        "{}/{}-seed{}-trace{}",
        args.out,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let write = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(format!("{stem}.json"), result_file(&args, &run, correct)))
        .and_then(|()| {
            if args.trace {
                std::fs::write(format!("{stem}.trace.json"), run.trace.to_chrome_json())
            } else {
                Ok(())
            }
        });
    if let Err(e) = write {
        eprintln!("[perfbench] cannot write results under {}: {e}", args.out);
        correct = false;
    }

    for note in &run.tally.notes {
        eprintln!("[perfbench] check failed: {note}");
    }
    for (name, unit) in list {
        eprintln!(
            "  {name:<28} {:>14} {unit}",
            num(run.sheet.get(name).unwrap_or(0.0))
        );
    }
    eprintln!(
        "  error_rate {error_rate} ({} failed, {} wrong of {} attempted)",
        run.tally.failed, run.tally.wrong, run.tally.attempted
    );
    // A run that measured prints its verdict in `correct` and exits 0;
    // only a run that could not measure exits non-zero.
    println!("{}", result_line(correct, &run.tally, &run.sheet, list));
}
