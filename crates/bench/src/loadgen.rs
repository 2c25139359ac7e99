//! `bench loadgen` — open-loop load generator for `memcontend serve
//! --listen`, the BENCH_2 scenario.
//!
//! Opens `--conns` connections, each authenticated as a tenant drawn
//! from a Zipf(`--zipf`) distribution over `--tenants` ids — the skew
//! every multi-tenant serving study assumes: tenant `t1` lands many
//! connections, the tail almost none, so `t1` contends with itself for
//! its credit budget while the cold tenants sail through. Requests
//! arrive *open-loop*: each connection sends on a fixed schedule
//! regardless of how fast responses come back, and latency is measured
//! from the scheduled send time, so server-side queueing is charged to
//! the server rather than silently self-throttled away (the
//! coordinated-omission correction).
//!
//! The summary reports achieved request rate, p50/p99 latency,
//! per-tenant ok/overload counts, the server's registry hit-rate (via
//! the `stats` op), and the overall rejection rate — the numbers
//! EXPERIMENTS.md snapshots as `BENCH_2.json`. With `--shutdown yes`
//! the run ends by asking the server to exit, which is how the CI smoke
//! test checks clean shutdown. A run that completed no request still
//! returns its summary; the `bench` binary turns `"completed":0` into
//! exit 1.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mc_cli::{Args, CliError};
use mc_json::{obj, Json};

/// xorshift64* — deterministic, seedable, and dependency-free; quality
/// is ample for sampling a 8-way categorical distribution.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(s) distribution over ranks `1..=n`: weight of rank k
/// is `1/k^s`, so rank 1 takes ~33% of draws at s=1, n=8.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        for i in 1..n {
            cdf[i] += cdf[i - 1];
        }
        let total = cdf[n - 1];
        for w in &mut cdf {
            *w /= total;
        }
        Zipf(cdf)
    }

    /// A rank in `0..n`, rank 0 hottest.
    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.0
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.0.len() - 1)
    }
}

/// What one connection observed.
#[derive(Default)]
struct ConnReport {
    tenant: usize,
    sent: u64,
    ok: u64,
    overload: u64,
    errors: u64,
    disconnected: bool,
    latencies_ms: Vec<f64>,
}

struct Plan {
    addr: String,
    interval: Duration,
    deadline: Duration,
    batch: usize,
}

/// Round-robin request bodies: a few platforms and core counts so the
/// registry sees both hits (repeats) and misses (first sightings).
fn request_line(k: u64, batch: usize) -> String {
    const PLATFORMS: [&str; 4] = ["henri", "dahu", "pyxis", "grillon"];
    let one = |k: u64| {
        let platform = PLATFORMS[(k % PLATFORMS.len() as u64) as usize];
        let cores = 1 + (k % 4);
        format!(
            "{{\"op\":\"predict\",\"platform\":\"{platform}\",\"cores\":{cores},\
             \"comp_numa\":0,\"comm_numa\":0}}"
        )
    };
    if batch <= 1 {
        one(k)
    } else {
        let items: Vec<String> = (0..batch as u64).map(|i| one(k + i)).collect();
        format!("{{\"batch\":[{}]}}", items.join(","))
    }
}

/// Drive one connection to the deadline; never panics — transport
/// failures mark the report and end the connection, mirroring the
/// fault-isolation contract under test.
fn run_connection(plan: &Plan, tenant: usize, report: &mut ConnReport) {
    report.tenant = tenant;
    let Ok(stream) = TcpStream::connect(&plan.addr) else {
        report.disconnected = true;
        return;
    };
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        report.disconnected = true;
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;

    // Hello, synchronously: nothing counts until the tenant is admitted.
    if writeln!(writer, "{{\"hello\":{{\"tenant\":\"t{tenant}\"}}}}").is_err() {
        report.disconnected = true;
        return;
    }
    let mut line = String::new();
    if reader.read_line(&mut line).map(|n| n == 0).unwrap_or(true) {
        report.disconnected = true;
        return;
    }

    // Open loop: the writer thread sends on schedule and passes each
    // scheduled instant over a channel; this thread matches responses
    // (in order, one line per request) and records latency from the
    // *scheduled* time.
    let (schedule_tx, schedule_rx) = mpsc::channel::<Instant>();
    let start = Instant::now();
    let interval = plan.interval;
    let deadline = plan.deadline;
    let batch = plan.batch;
    let writer_thread = std::thread::spawn(move || {
        let mut sent = 0u64;
        loop {
            let due = start + interval * sent as u32;
            if due.duration_since(start) >= deadline {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if writeln!(writer, "{}", request_line(sent, batch)).is_err() {
                break;
            }
            if schedule_tx.send(due).is_err() {
                break;
            }
            sent += 1;
        }
        sent
        // Dropping `writer` closes the write half only after the last
        // request; dropping `schedule_tx` tells the reader it is done.
    });

    while let Ok(scheduled) = schedule_rx.recv() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                report.disconnected = true;
                break;
            }
        }
        report
            .latencies_ms
            .push(scheduled.elapsed().as_secs_f64() * 1e3);
        match Json::parse(line.trim()) {
            Ok(v) if v.get("ok") == Some(&Json::Bool(true)) => report.ok += 1,
            Ok(v) => {
                let class = v
                    .get("error")
                    .and_then(|e| e.get("class"))
                    .and_then(Json::as_str);
                if class == Some("overload") {
                    report.overload += 1;
                } else {
                    report.errors += 1;
                }
            }
            Err(_) => report.errors += 1,
        }
    }
    report.sent = writer_thread.join().unwrap_or(0);
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One synchronous request on a fresh admin connection (stats/shutdown).
fn admin_request(addr: &str, request: &str) -> Option<Json> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    let mut line = String::new();
    writeln!(writer, "{{\"hello\":{{\"tenant\":\"loadgen-admin\"}}}}").ok()?;
    reader.read_line(&mut line).ok()?;
    writeln!(writer, "{request}").ok()?;
    line.clear();
    reader.read_line(&mut line).ok()?;
    Json::parse(line.trim()).ok()
}

/// Run the load against `--addr` and summarise it.
pub fn run(args: &Args) -> Result<Json, CliError> {
    let addr = args.require("addr")?;
    let conns = args.threads_or("conns", 8)?;
    let tenants = args.count_or("tenants", 8)?;
    let batch = args.count_or("batch", 1)?;
    let rate: f64 = args.num_or("rate", 200.0)?;
    let duration_s: f64 = args.num_or("duration-s", 5.0)?;
    // Both must be positive and give a schedule a `Duration` can hold.
    let seconds = |key: &'static str, value: f64, secs: f64| match Duration::try_from_secs_f64(secs)
    {
        Ok(d) if value > 0.0 => Ok(d),
        _ => Err(CliError::BadValue(key, value.to_string())),
    };
    let interval = seconds("rate", rate, conns as f64 / rate)?;
    let deadline = seconds("duration-s", duration_s, duration_s)?;
    let zipf_s: f64 = args.num_or("zipf", 1.0)?;
    let seed: u64 = args.num_or("seed", 42)?;
    let shutdown = args.flag("shutdown")?;

    // Assign a Zipf-drawn tenant to each connection; the skew is the
    // whole point, so print nothing until the summary.
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(tenants, zipf_s);
    let assignment: Vec<usize> = (0..conns).map(|_| zipf.sample(&mut rng)).collect();

    let plan = Plan {
        addr: addr.to_string(),
        interval,
        deadline,
        batch,
    };

    let started = Instant::now();
    let reports: Vec<ConnReport> = std::thread::scope(|scope| {
        let plan = &plan;
        let handles: Vec<_> = assignment
            .iter()
            .map(|&tenant| {
                scope.spawn(move || {
                    let mut report = ConnReport::default();
                    run_connection(plan, tenant, &mut report);
                    report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let stats = admin_request(addr, r#"{"op":"stats"}"#);
    if shutdown {
        admin_request(addr, r#"{"op":"shutdown"}"#);
    }

    let mut latencies: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let sent: u64 = reports.iter().map(|r| r.sent).sum();
    let ok: u64 = reports.iter().map(|r| r.ok).sum();
    let overload: u64 = reports.iter().map(|r| r.overload).sum();
    let errors: u64 = reports.iter().map(|r| r.errors).sum();
    let completed = ok + overload + errors;
    let disconnected = reports.iter().filter(|r| r.disconnected).count();

    let mut per_tenant: Vec<(String, Json)> = Vec::new();
    for t in 0..tenants {
        let of_tenant: Vec<&ConnReport> = reports.iter().filter(|r| r.tenant == t).collect();
        if of_tenant.is_empty() {
            continue;
        }
        per_tenant.push((
            format!("t{t}"),
            obj(vec![
                ("conns", Json::Num(of_tenant.len() as f64)),
                (
                    "ok",
                    Json::Num(of_tenant.iter().map(|r| r.ok).sum::<u64>() as f64),
                ),
                (
                    "overload",
                    Json::Num(of_tenant.iter().map(|r| r.overload).sum::<u64>() as f64),
                ),
            ]),
        ));
    }

    let hit_rate = stats
        .as_ref()
        .and_then(|s| s.get("hit_rate"))
        .cloned()
        .unwrap_or(Json::Null);
    Ok(obj(vec![
        ("bench", Json::Str("loadgen".into())),
        ("addr", Json::Str(addr.to_string())),
        ("conns", Json::Num(conns as f64)),
        ("tenants", Json::Num(tenants as f64)),
        ("zipf_s", Json::Num(zipf_s)),
        ("batch", Json::Num(batch as f64)),
        ("rate_target", Json::Num(rate)),
        ("duration_s", Json::Num(elapsed)),
        ("sent", Json::Num(sent as f64)),
        ("completed", Json::Num(completed as f64)),
        ("ok", Json::Num(ok as f64)),
        ("overload", Json::Num(overload as f64)),
        ("errors", Json::Num(errors as f64)),
        ("disconnected", Json::Num(disconnected as f64)),
        (
            "achieved_rps",
            Json::Num(if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            }),
        ),
        (
            "rejection_rate",
            Json::Num(if completed > 0 {
                overload as f64 / completed as f64
            } else {
                0.0
            }),
        ),
        ("p50_ms", Json::Num(percentile(&latencies, 0.50))),
        ("p99_ms", Json::Num(percentile(&latencies, 0.99))),
        ("registry_hit_rate", hit_rate),
        ("per_tenant", Json::Obj(per_tenant)),
    ]))
}
