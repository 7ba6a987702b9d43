//! `replicated_put`: one connection, closed loop at depth 1, against a
//! semi-sync leader + follower in one process, device model off as in
//! netbench, the whole process pinned to one CPU.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use miodb_client::{ClientCounters, ClientOptions, KvClient};
use miodb_common::{Histogram, KvEngine, Opcode, ReplicationSink, Request, Response, RoleState};
use miodb_core::{MioDb, MioOptions};
use miodb_pmem::DeviceModel;
use miodb_repl::{
    engine_snapshot_bytes, AckLevel, Follower, FollowerOptions, Replicator, ReplicatorOptions,
};
use miodb_server::{KvServer, ReplConfig, ServerOptions};

use crate::common::{
    judge_get, key, median, pin_to_one_cpu, thread_count, value, HostCpu, ProcUsage, Rng, Sampler,
    Samples, Sheet, Span, Spans, Tally, KEY_LEN, STREAM_PUTS, STREAM_READ_BACK,
};
use crate::engine::{engine_layers, reconcile, settle, stats_track};
use crate::{proc_layers, Args, Run};

/// Key space of the puts.
const RECORDS: u64 = 100_000;
const VALUE_LEN: usize = 256;
/// Independent rounds per run, each on a fresh leader + follower; a
/// run's metrics are medians over them.
const ROUNDS: usize = 4;
/// Keys read back (from the leader over the wire and from the follower's
/// engine) after each round drains.
const READ_BACK: u64 = 25_000;
/// One read-back get in this many asks for a key that was never written.
const ABSENT_EVERY: u64 = 10;

/// Netbench's engine: 1 MiB MemTables, NVM accounting without delays.
fn net_options(name: &str) -> MioOptions {
    MioOptions {
        memtable_bytes: 1 << 20,
        nvm_pool_bytes: 1 << 30,
        dram_pool_bytes: 64 << 20,
        nvm_device: DeviceModel::nvm_unthrottled(),
        name: name.to_string(),
        ..MioOptions::default()
    }
}

fn client(addr: SocketAddr) -> miodb_common::Result<KvClient> {
    KvClient::connect_with(
        addr,
        ClientOptions {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            ..ClientOptions::default()
        },
    )
}

fn bg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Adds the counters a client gathered since `before` into `acc`.
fn add_delta(acc: &mut ClientCounters, now: &ClientCounters, before: &ClientCounters) {
    acc.retries += now.retries - before.retries;
    acc.timeouts += now.timeouts - before.timeouts;
    acc.reconnects += now.reconnects - before.reconnects;
    acc.backpressure += now.backpressure - before.backpressure;
}

fn client_layers(sheet: &mut Sheet, spans: &[Span], c: &ClientCounters) {
    sheet.set(
        "client.send_p99_us",
        Spans::durations(spans, "client.send").pct_us(99.0),
    );
    sheet.set(
        "client.recv_wait_p50_us",
        Spans::durations(spans, "client.recv").pct_us(50.0),
    );
    sheet.set("client.retries", c.retries as f64);
    sheet.set("client.timeouts", c.timeouts as f64);
    sheet.set("client.reconnects", c.reconnects as f64);
    sheet.set("client.backpressure", c.backpressure as f64);
}

/// Percentile in microseconds of a bucketed server-side histogram.
fn hist_us(h: &Histogram, p: f64) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        h.percentile(p) as f64 / 1e3
    }
}

/// Turns a get response into the checker's input.
fn get_answer(r: miodb_common::Result<(u32, Response)>) -> Result<Option<Vec<u8>>, String> {
    match r {
        Ok((_, Response::Value(v))) => Ok(v),
        Ok((_, other)) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(bg(e)),
    }
}

struct Pair {
    leader: Arc<MioDb>,
    replicator: Arc<Replicator>,
    server: KvServer,
    follower: Follower,
    follower_db: Arc<MioDb>,
}

/// A leader and one semi-sync follower in one process, wired as
/// `repro repl` wires them.
fn pair_setup() -> Result<Pair, String> {
    let leader = Arc::new(MioDb::open(net_options("MioDB-perfbench-leader")).map_err(bg)?);
    let replicator = Replicator::new(ReplicatorOptions {
        ack_level: AckLevel::SemiSync,
        semi_sync_timeout: Duration::from_secs(10),
        retain_bytes: 256 << 20,
        group_size: 2,
    });
    leader.set_commit_sink(Some(Arc::clone(&replicator) as Arc<dyn ReplicationSink>));
    let snap = Arc::clone(&leader);
    let server = KvServer::start_replicated(
        "127.0.0.1:0",
        Arc::clone(&leader) as Arc<dyn KvEngine>,
        ServerOptions::default(),
        ReplConfig::new(
            Some(Arc::clone(&replicator)),
            Some(Box::new(move || engine_snapshot_bytes(&snap))),
            Arc::new(RoleState::new_leader(1)),
            "",
        ),
    )
    .map_err(bg)?;
    let follower_db = Arc::new(MioDb::open(net_options("MioDB-perfbench-follower")).map_err(bg)?);
    let follower = Follower::start(
        Arc::clone(&follower_db),
        &server.local_addr().to_string(),
        FollowerOptions::default(),
    )
    .map_err(bg)?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while replicator.subscriber_count() == 0 {
        if Instant::now() >= deadline {
            return Err("follower never subscribed".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Pair {
        leader,
        replicator,
        server,
        follower,
        follower_db,
    })
}

fn pair_teardown(p: Pair) {
    p.follower.stop();
    p.server.shutdown();
    p.leader.set_commit_sink(None);
    let _ = p.follower_db.close();
    let _ = p.leader.close();
}

/// Waits until the follower acknowledged everything the leader committed.
fn drain(p: &Pair) -> Result<f64, String> {
    let t0 = Instant::now();
    let target = p.leader.last_sequence();
    while p.replicator.max_acked() < target {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err(format!(
                "follower never converged ({} < {target})",
                p.replicator.max_acked()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// One round: set up a fresh pair and connect (timed as `setup_s`), put
/// for `seconds`, settle and drain, check the follower against the
/// leader and read a sample back through the client. Returns the round's
/// metrics and its mean put latency.
fn repl_round(
    seed: u64,
    round: u64,
    seconds: f64,
    traced: bool,
    run: &mut Run,
) -> Option<(Sheet, f64)> {
    let t_setup = Instant::now();
    let p = match pair_setup() {
        Ok(p) => p,
        Err(e) => {
            run.tally.failed(format!("setup: {e}"));
            return None;
        }
    };
    let mut client = match client(p.server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            run.tally.failed(format!("connect: {e}"));
            pair_teardown(p);
            return None;
        }
    };
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut spans = Spans::new(traced, run.epoch, 1);
    let sampler = traced.then(|| {
        Sampler::start(
            run.epoch,
            Duration::from_millis(100),
            stats_track(Arc::clone(&p.leader)),
        )
    });
    let mut tally = Tally::default();
    let mut rng = Rng::stream(seed, STREAM_PUTS);
    let mut last = vec![0u32; RECORDS as usize];
    let mut written = 0u64;
    let mut op = round << 40;
    let u0 = ProcUsage::now();
    let before = p.leader.stats().snapshot();
    let lag0 = p.replicator.lag_histogram();
    let tel = p.server.telemetry();
    let sp0 = tel.latency(Opcode::Put).snapshot();
    let b0 = tel.backpressure_events();
    let cc0 = client.counters();
    let mut put_lat = Samples::default();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let i = rng.below(RECORDS);
        let ver = last[i as usize] + 1;
        let req = Request::Put {
            key: key(i),
            value: value(seed, i, ver, VALUE_LEN),
        };
        op += 1;
        tally.attempted += 1;
        let c0 = Instant::now();
        let sent = spans.time("client.send", op, || client.send(&req));
        let flushed = spans.time("client.flush", op, || client.flush());
        let r = match (sent, flushed) {
            (Ok(_), Ok(())) => spans.time("client.recv", op, || client.recv()),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        put_lat.push(c0.elapsed());
        match r {
            Ok((_, Response::Ok)) => {
                if last[i as usize] == 0 {
                    written += 1;
                }
                last[i as usize] = ver;
            }
            Ok((_, other)) => tally.failed(format!("put refused: {other:?}")),
            Err(e) => {
                tally.failed(format!("put: {e}"));
                break;
            }
        }
    }
    let phase_s = t0.elapsed().as_secs_f64();
    let threads = thread_count();
    let settle_s = settle(&*p.leader, &mut spans, &mut tally);
    let drain_s = match drain(&p) {
        Ok(s) => s,
        Err(e) => {
            tally.failed(e);
            0.0
        }
    };
    let d = p.leader.stats().snapshot().diff(&before);
    let lag = p.replicator.lag_histogram().diff(&lag0);
    let sp = tel.latency(Opcode::Put).snapshot().diff(&sp0);
    let sg0 = tel.latency(Opcode::Get).snapshot();
    let u1 = ProcUsage::now();
    let report = p.leader.report();
    let cc1 = client.counters();
    if let Some(s) = sampler {
        run.trace.counters.extend(s.finish());
    }
    let puts = put_lat.len() as u64;
    reconcile(&mut tally, &d, puts, 0, (KEY_LEN + VALUE_LEN) as u64);

    // The follower must hold exactly what the leader holds.
    let gap = p
        .leader
        .last_sequence()
        .abs_diff(p.follower_db.last_sequence());
    if gap != 0 {
        tally.wrong(format!(
            "follower last_sequence differs from the leader's by {gap}"
        ));
    }
    let mut get_lat = Samples::default();
    let mut rng = Rng::stream(seed, STREAM_READ_BACK);
    let g0 = Instant::now();
    for _ in 0..READ_BACK {
        let absent = rng.below(ABSENT_EVERY) == 0;
        let i = if absent {
            RECORDS + rng.below(RECORDS)
        } else {
            rng.below(RECORDS)
        };
        // A key no put reached must miss as well.
        let missing = absent || last[i as usize] == 0;
        let ver = if missing { 0 } else { last[i as usize] };
        tally.attempted += 2;
        let k = key(i);
        op += 1;
        let c0 = Instant::now();
        let r = spans
            .time("client.send", op, || {
                client.send(&Request::Get { key: k.clone() })
            })
            .and_then(|_| spans.time("client.flush", op, || client.flush()))
            .and_then(|()| spans.time("client.recv", op, || client.recv()));
        get_lat.push(c0.elapsed());
        judge_get(
            &mut tally,
            seed,
            i,
            missing,
            get_answer(r),
            VALUE_LEN,
            ver,
            ver,
        );
        let f = p.follower_db.get(&k).map_err(bg);
        judge_get(&mut tally, seed, i, missing, f, VALUE_LEN, ver, ver);
    }
    let get_s = g0.elapsed().as_secs_f64();
    let sg = tel.latency(Opcode::Get).snapshot().diff(&sg0);
    let bp = tel.backpressure_events() - b0;
    let _ = client.close();
    pair_teardown(p);

    let mut sh = Sheet::default();
    sh.set("setup_s", setup_s);
    sh.set("put_kops", puts as f64 / phase_s / 1e3);
    sh.set(
        "sustained_put_kops",
        puts as f64 / (phase_s + settle_s + drain_s) / 1e3,
    );
    sh.set("put_p50_us", put_lat.pct_us(50.0));
    sh.set("put_p90_us", put_lat.pct_us(90.0));
    sh.set("diag.put_p99_us", put_lat.pct_us(99.0));
    sh.set("diag.put_p999_us", put_lat.pct_us(99.9));
    sh.set("get_kops", get_lat.len() as f64 / get_s / 1e3);
    sh.set("get_p50_us", get_lat.pct_us(50.0));
    sh.set("get_p90_us", get_lat.pct_us(90.0));
    sh.set("diag.get_p99_us", get_lat.pct_us(99.0));
    sh.set("diag.get_p999_us", get_lat.pct_us(99.9));
    sh.set(
        "space_amp",
        report.nvm_used_bytes as f64 / (written.max(1) * (KEY_LEN + VALUE_LEN) as u64) as f64,
    );
    sh.set("repl.lag_p50_us", hist_us(&lag, 50.0));
    sh.set("repl.lag_p99_us", hist_us(&lag, 99.0));
    sh.set("repl.follower_gap", gap as f64);
    let mut cc = ClientCounters::default();
    add_delta(&mut cc, &cc1, &cc0);
    client_layers(&mut sh, &spans.spans, &cc);
    engine_layers(
        &mut sh,
        &d,
        phase_s,
        settle_s,
        &report,
        DeviceModel::nvm_unthrottled(),
    );
    proc_layers(&mut sh, &u0, &u1, phase_s + settle_s + drain_s, threads);
    sh.set("server.put_p50_us", hist_us(&sp, 50.0));
    sh.set("server.put_p99_us", hist_us(&sp, 99.0));
    sh.set("server.get_p50_us", hist_us(&sg, 50.0));
    sh.set("server.get_p99_us", hist_us(&sg, 99.0));
    sh.set(
        "server.outside_p50_us",
        put_lat.pct_us(50.0) - hist_us(&sp, 50.0),
    );
    sh.set(
        "server.outside_p99_us",
        put_lat.pct_us(99.0) - hist_us(&sp, 99.0),
    );
    sh.set("server.backpressure_events", bp as f64);
    run.tally.absorb(tally);
    run.trace.spans.append(&mut spans.spans);
    Some((sh, put_lat.mean_us()))
}

/// `n` rounds that count, numbered from `first`; every metric is the
/// median over them.
fn repl_rounds(
    seed: u64,
    first: usize,
    n: usize,
    seconds: f64,
    traced: bool,
    run: &mut Run,
) -> Option<(Sheet, f64)> {
    let (mut sheets, mut means) = (Vec::new(), Vec::new());
    let mut round = first as u64;
    while sheets.len() < n {
        let start = HostCpu::now();
        let (sh, mean) = repl_round(seed, round, seconds, traced, run)?;
        round += 1;
        if run.gate.counts(&start) {
            sheets.push(sh);
            means.push(mean);
        }
    }
    run.param(
        if traced { "traced_rounds" } else { "rounds" },
        n.to_string(),
    );
    Some((Sheet::median_of(&sheets), median(&means)))
}

pub fn replicated_put(args: &Args, run: &mut Run) {
    run.param("records", RECORDS.to_string());
    run.param("value_len", VALUE_LEN.to_string());
    run.param("ack_level", "semi-sync".to_string());
    run.param("connections", "1".to_string());
    run.param("pipeline_depth", "1".to_string());
    run.param("device_model", "off".to_string());
    // On one CPU each hop of the depth-1 round trip (client, event loop,
    // worker, replicator, follower and back) wakes a thread on the CPU
    // that is already running. Spread over two vCPUs, every hop wakes a
    // halted vCPU, and on a shared host that wake-up waits for the
    // hypervisor: on a 2-vCPU shared VM it was about 40% of the round trip
    // and made runs differ by up to a factor of two.
    match pin_to_one_cpu() {
        Ok(cpu) => run.param("pinned_cpu", cpu.to_string()),
        Err(e) => {
            run.tally.failed(format!("pin: {e}"));
            return;
        }
    }
    // A traced run spends half its rounds untraced and half traced.
    let n = if args.trace { ROUNDS / 2 } else { ROUNDS };
    let seconds = args.seconds / ROUNDS as f64;
    let Some((mut sheet, plain)) = repl_rounds(args.seed, 0, n, seconds, false, run) else {
        return;
    };
    if args.trace {
        let Some((traced_sheet, traced)) = repl_rounds(args.seed, n, n, seconds, true, run) else {
            return;
        };
        sheet = traced_sheet;
        run.overhead(plain, traced);
    }
    for (name, v) in sheet.values {
        run.sheet.set(&name, v);
    }
}
