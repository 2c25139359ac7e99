//! Network transport for `memcontend serve`: `--listen HOST:PORT`.
//!
//! Many clients, one blocking thread each over a plain
//! [`std::net::TcpListener`], all speaking the stdio transport's
//! JSON-lines protocol with two additions: a first
//! `{"hello":{"tenant":ID}}` line (acked with the tenant's credit
//! configuration; any other first line, JSON or not, gets a `usage`
//! error and the door) and `{"op":"shutdown"}`, which ends the accept
//! loop so the process exits 0. Each tenant holds a budget of request
//! credits (a batch costs one per item) and a flood past it gets typed
//! `overload` rejections, leaving other tenants untouched. A connection
//! whose transport fails tears down only itself. DESIGN.md §14 specifies
//! the transport, the credits and the fault isolation.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mc_json::{obj, Json};
use mc_model::{McError, ModelRegistry};
use mc_obs::{tags, TagValue};

use crate::args::{Args, CliError};
use crate::serve;

/// Default per-tenant credit budget: enough to keep a well-behaved
/// client's pipeline full, small enough that one tenant cannot occupy
/// every batch worker for long.
const DEFAULT_CREDITS: usize = 16;

/// Default bound on concurrent connections; past it new connections are
/// refused with an `overload` response before any request is read.
const DEFAULT_MAX_CONNS: usize = 256;

/// Default time a request may wait for credits before an `overload`
/// rejection — long enough to ride out a burst, short enough that a
/// blocked client learns quickly.
const DEFAULT_WAIT_MS: u64 = 1000;

/// Longest tenant id accepted; ids become observability tags, so they
/// must not be an unbounded-cardinality channel.
const MAX_TENANT_LEN: usize = 64;

/// Why an admission request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overload {
    /// The request wants more credits than the tenant's whole budget —
    /// it could never be granted, so it fails immediately.
    TooLarge {
        /// Credits the request needs (its batch size).
        requested: usize,
        /// The tenant's total budget.
        capacity: usize,
    },
    /// The tenant's wait queue is already at its bound.
    QueueFull {
        /// Requests already waiting.
        waiting: usize,
        /// The queue bound.
        max_queue: usize,
    },
    /// Credits did not free up within the configured wait.
    TimedOut {
        /// How long the request waited.
        waited_ms: u64,
    },
}

impl Overload {
    fn message(&self) -> String {
        match self {
            Overload::TooLarge {
                requested,
                capacity,
            } => format!("request needs {requested} credits but the tenant budget is {capacity}"),
            Overload::QueueFull { waiting, max_queue } => {
                format!("credit queue is full ({waiting} waiting, bound {max_queue})")
            }
            Overload::TimedOut { waited_ms } => {
                format!("no credits freed within {waited_ms} ms")
            }
        }
    }

    /// The tag value recorded under `serve.overload`.
    fn reason(&self) -> &'static str {
        match self {
            Overload::TooLarge { .. } => "too_large",
            Overload::QueueFull { .. } => "queue_full",
            Overload::TimedOut { .. } => "timed_out",
        }
    }
}

struct GateState {
    available: usize,
    waiting: usize,
}

/// One tenant's credit pool: `acquire` takes credits (queueing
/// boundedly when none are free), `release` returns them. The gwr
/// `Resource` request/release idiom, with the waits bounded in both
/// queue depth and time so a flood degrades into typed rejections.
pub struct CreditGate {
    capacity: usize,
    max_queue: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

impl CreditGate {
    /// A gate holding `capacity` credits with at most `max_queue`
    /// requests waiting for them.
    pub fn new(capacity: usize, max_queue: usize) -> Self {
        CreditGate {
            capacity,
            max_queue,
            state: Mutex::new(GateState {
                available: capacity,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Take `units` credits, waiting up to `wait` for them to free.
    /// Rejections are immediate when the request can never be granted
    /// (`TooLarge`) or the queue is at its bound (`QueueFull`).
    pub fn acquire(&self, units: usize, wait: Duration) -> Result<(), Overload> {
        if units > self.capacity {
            return Err(Overload::TooLarge {
                requested: units,
                capacity: self.capacity,
            });
        }
        let mut state = self.lock();
        if state.available >= units {
            state.available -= units;
            return Ok(());
        }
        if state.waiting >= self.max_queue {
            return Err(Overload::QueueFull {
                waiting: state.waiting,
                max_queue: self.max_queue,
            });
        }
        state.waiting += 1;
        let started = Instant::now();
        let deadline = started + wait;
        loop {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now) else {
                state.waiting -= 1;
                return Err(Overload::TimedOut {
                    waited_ms: started.elapsed().as_millis() as u64,
                });
            };
            state = self
                .freed
                .wait_timeout(state, remaining)
                .unwrap_or_else(|p| p.into_inner())
                .0;
            if state.available >= units {
                state.available -= units;
                state.waiting -= 1;
                return Ok(());
            }
        }
    }

    /// Return `units` credits (saturating at the budget, so a spurious
    /// double release cannot mint credit).
    pub fn release(&self, units: usize) {
        let mut state = self.lock();
        state.available = (state.available + units).min(self.capacity);
        self.freed.notify_all();
    }

    /// Credits currently free (test/diagnostic visibility).
    pub fn available(&self) -> usize {
        self.lock().available
    }
}

/// The admission controller: one [`CreditGate`] per tenant, created on
/// first hello, all sized by the same configuration. Budgets are
/// per-tenant by construction, which is the isolation property — there
/// is no global pool a flood could drain.
pub struct Admission {
    credits: usize,
    max_queue: usize,
    wait: Duration,
    gates: Mutex<HashMap<String, Arc<CreditGate>>>,
}

impl Admission {
    /// A controller granting each tenant `credits` credits, with at most
    /// `max_queue` waiting requests and a `wait` bound per request.
    pub fn new(credits: usize, max_queue: usize, wait: Duration) -> Self {
        Admission {
            credits,
            max_queue,
            wait,
            gates: Mutex::new(HashMap::new()),
        }
    }

    /// The gate for a tenant, created at first sight.
    pub fn gate(&self, tenant: &str) -> Arc<CreditGate> {
        let mut gates = self.gates.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            gates
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(CreditGate::new(self.credits, self.max_queue))),
        )
    }

    /// Per-request credit budget (batch size, else 1).
    pub fn units_for(request: &Json) -> usize {
        request
            .get("batch")
            .and_then(Json::as_array)
            .map(<[Json]>::len)
            .unwrap_or(1)
            .max(1)
    }
}

/// Everything a connection thread shares with the accept loop.
struct Shared {
    registry: ModelRegistry,
    admission: Admission,
    workers: usize,
    shutdown: AtomicBool,
    active: AtomicUsize,
    addr: SocketAddr,
}

/// A bound, not-yet-running TCP serve: [`NetServer::bind`] resolves the
/// flags and the address (startup failures stay fatal here), then
/// [`NetServer::run`] serves until a shutdown request.
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    max_conns: usize,
}

impl NetServer {
    /// Bind the listen address and build the shared state. `--listen
    /// HOST:PORT` may use port 0; [`NetServer::local_addr`] reports the
    /// port actually bound.
    pub fn bind(args: &Args) -> Result<NetServer, CliError> {
        let (registry, workers) = serve::build_registry(args)?;
        let credits = args.count_or("credits", DEFAULT_CREDITS)?;
        let max_queue: usize = args.num_or("queue", credits)?;
        let wait_ms: u64 = args.num_or("wait-ms", DEFAULT_WAIT_MS)?;
        let max_conns = args.count_or("max-conns", DEFAULT_MAX_CONNS)?;
        let addr = args.require("listen")?;
        let listener = TcpListener::bind(addr).map_err(|e| McError::io(addr, e))?;
        let local = listener.local_addr().map_err(|e| McError::io(addr, e))?;
        Ok(NetServer {
            listener,
            shared: Arc::new(Shared {
                registry,
                admission: Admission::new(credits, max_queue, Duration::from_millis(wait_ms)),
                workers,
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                addr: local,
            }),
            max_conns,
        })
    }

    /// The address actually bound (resolves `--listen HOST:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The announce line the binary prints before serving — the one
    /// machine-readable place a client learns an ephemeral port.
    pub fn announce_line(&self) -> String {
        obj(vec![("listening", Json::Str(self.shared.addr.to_string()))]).render()
    }

    /// Accept and serve connections until a `{"op":"shutdown"}` request
    /// flips the flag. Accept errors are transient (counted, skipped);
    /// connection failures never propagate here.
    pub fn run(self) -> Result<(), CliError> {
        let _span = mc_obs::span(
            "serve",
            &[
                (tags::WORKERS, TagValue::U64(self.shared.workers as u64)),
                (tags::TRANSPORT, TagValue::Str("tcp")),
            ],
        );
        for conn in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.shared.active.load(Ordering::Acquire) >= self.max_conns {
                refuse_connection(stream, self.max_conns);
                continue;
            }
            self.shared.active.fetch_add(1, Ordering::AcqRel);
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                handle_connection(&shared, stream);
                shared.active.fetch_sub(1, Ordering::AcqRel);
            });
        }
        Ok(())
    }
}

/// Tell an over-capacity client why it is being dropped, best-effort.
fn refuse_connection(mut stream: TcpStream, max_conns: usize) {
    let e = CliError::Overload(format!("connection limit {max_conns} reached"));
    count_overload("", "conn_limit");
    let _ = serve::write_response(&mut stream, &serve::error_response(None, &e));
}

/// A tenant id fit to become an observability tag: non-empty, bounded,
/// and drawn from a filename-safe alphabet.
fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= MAX_TENANT_LEN
        && tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Parse the mandatory first line: `{"hello":{"tenant":ID}}`.
fn hello_tenant(request: &Json) -> Result<String, CliError> {
    let hello = request.get("hello").ok_or_else(|| {
        CliError::Protocol("first line must be {\"hello\":{\"tenant\":...}}".into())
    })?;
    let tenant = hello
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or_else(|| CliError::Protocol("'hello' needs a string 'tenant'".into()))?;
    if !valid_tenant(tenant) {
        return Err(CliError::Protocol(format!(
            "tenant id must be 1..={MAX_TENANT_LEN} chars of [A-Za-z0-9._-], got '{tenant}'"
        )));
    }
    Ok(tenant.to_string())
}

/// Serve one connection to completion. Never panics the accept loop;
/// every exit path is a clean connection teardown.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Responses are single lines a client blocks on: no Nagle delay.
    stream.set_nodelay(true).ok();
    let reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => {
            serve::count_disconnect("tcp");
            return;
        }
    };
    let mut writer = stream;
    let mut lines = mc_json::parse_lines(reader);

    // First line: the hello handshake, answered before any credit moves.
    let tenant = match lines.next() {
        None => return,
        // A first line that is no JSON, or no UTF-8, gets its error and
        // the door like any other; a failed transport gets nothing.
        Some(Err(e)) => {
            match serve::rejected_line(&e) {
                Some(response) => {
                    let _ = serve::write_response(&mut writer, &response);
                }
                None => serve::count_disconnect("tcp"),
            }
            return;
        }
        Some(Ok((_line, request))) => match hello_tenant(&request) {
            Ok(tenant) => tenant,
            Err(e) => {
                // An unauthenticated line gets its error and the door.
                serve::count_request("hello", "usage");
                let _ = serve::write_response(&mut writer, &serve::error_response(None, &e));
                return;
            }
        },
    };
    let ack = obj(vec![
        ("ok", Json::Bool(true)),
        (
            "hello",
            obj(vec![
                ("tenant", Json::Str(tenant.clone())),
                ("credits", Json::Num(shared.admission.credits as f64)),
                ("queue", Json::Num(shared.admission.max_queue as f64)),
            ]),
        ),
    ]);
    if serve::write_response(&mut writer, &ack).is_err() {
        serve::count_disconnect("tcp");
        return;
    }

    let tenant_tag = [(tags::TENANT, TagValue::Str(&tenant))];
    if let Some(rec) = mc_obs::recorder() {
        rec.add("serve.connections", &tenant_tag, 1);
    }
    let gate = shared.admission.gate(&tenant);

    for item in lines {
        let (response, units_held) = match item {
            Err(e) => match serve::rejected_line(&e) {
                Some(response) => (response, 0),
                None => {
                    serve::count_disconnect("tcp");
                    return;
                }
            },
            Ok((_line, request)) => {
                if request.get("op").and_then(Json::as_str) == Some("shutdown") {
                    let ack = obj(vec![
                        ("ok", Json::Bool(true)),
                        ("op", Json::Str("shutdown".into())),
                    ]);
                    let _ = serve::write_response(&mut writer, &ack);
                    initiate_shutdown(shared);
                    return;
                }
                let units = Admission::units_for(&request);
                match gate.acquire(units, shared.admission.wait) {
                    Err(overload) => {
                        count_overload(&tenant, overload.reason());
                        serve::count_request("admission", "overload");
                        let e = CliError::Overload(overload.message());
                        (serve::error_response(request.get("id"), &e), 0)
                    }
                    Ok(()) => {
                        let started = mc_obs::enabled().then(Instant::now);
                        let response = serve::dispatch(&shared.registry, &request, shared.workers);
                        if let (Some(started), Some(rec)) = (started, mc_obs::recorder()) {
                            let seconds = started.elapsed().as_secs_f64();
                            rec.observe("serve.tenant_seconds", &tenant_tag, seconds);
                        }
                        (response, units)
                    }
                }
            }
        };
        let wrote = serve::write_response(&mut writer, &response);
        // Credits return when the response hits the wire — and also when
        // it cannot (the gate is tenant-wide, shared across connections;
        // a dead connection must not strand its tenant's credits).
        if units_held > 0 {
            gate.release(units_held);
        }
        if wrote.is_err() {
            serve::count_disconnect("tcp");
            return;
        }
    }
}

fn count_overload(tenant: &str, reason: &'static str) {
    if let Some(rec) = mc_obs::recorder() {
        let overload_tags = [
            (tags::TENANT, TagValue::Str(tenant)),
            (tags::REASON, TagValue::Str(reason)),
        ];
        rec.add("serve.overload", &overload_tags, 1);
    }
}

/// Flip the shutdown flag and poke the accept loop awake with a
/// throwaway connection to our own address.
fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(500));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write as _};

    #[test]
    fn credits_grant_immediately_while_available() {
        let gate = CreditGate::new(4, 2);
        for _ in 0..4 {
            gate.acquire(1, Duration::ZERO).unwrap();
        }
        assert_eq!(gate.available(), 0);
        gate.release(3);
        assert_eq!(gate.available(), 3);
        gate.acquire(3, Duration::ZERO).unwrap();
    }

    #[test]
    fn oversized_requests_fail_fast() {
        let gate = CreditGate::new(4, 2);
        assert_eq!(
            gate.acquire(5, Duration::from_secs(60)),
            Err(Overload::TooLarge {
                requested: 5,
                capacity: 4
            }),
            "an impossible request must not wait"
        );
        // The budget itself is fine.
        gate.acquire(4, Duration::ZERO).unwrap();
    }

    #[test]
    fn exhausted_credits_time_out_with_a_typed_rejection() {
        let gate = CreditGate::new(1, 4);
        gate.acquire(1, Duration::ZERO).unwrap();
        match gate.acquire(1, Duration::from_millis(20)) {
            Err(Overload::TimedOut { .. }) => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn queue_bound_rejects_the_flood() {
        let gate = Arc::new(CreditGate::new(1, 1));
        gate.acquire(1, Duration::ZERO).unwrap();
        // One waiter is admitted to the queue…
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.acquire(1, Duration::from_secs(5)))
        };
        // …and once it is parked, the next request bounces.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let state = gate.lock();
            if state.waiting == 1 {
                break;
            }
            drop(state);
            assert!(Instant::now() < deadline, "waiter never queued");
            std::thread::yield_now();
        }
        match gate.acquire(1, Duration::from_secs(5)) {
            Err(Overload::QueueFull {
                waiting: 1,
                max_queue: 1,
            }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Releasing wakes the queued waiter.
        gate.release(1);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn release_saturates_at_capacity() {
        let gate = CreditGate::new(2, 1);
        gate.release(10);
        assert_eq!(gate.available(), 2, "double release must not mint credit");
    }

    #[test]
    fn admission_isolates_tenants() {
        let adm = Admission::new(2, 1, Duration::ZERO);
        let alice = adm.gate("alice");
        let bob = adm.gate("bob");
        alice.acquire(2, Duration::ZERO).unwrap();
        // Alice is drained; Bob's budget is untouched.
        bob.acquire(2, Duration::ZERO).unwrap();
        assert!(Arc::ptr_eq(&adm.gate("alice"), &alice), "gates are stable");
    }

    #[test]
    fn units_follow_batch_size() {
        let single = Json::parse(r#"{"op":"predict"}"#).unwrap();
        assert_eq!(Admission::units_for(&single), 1);
        let batch = Json::parse(r#"{"batch":[{},{},{}]}"#).unwrap();
        assert_eq!(Admission::units_for(&batch), 3);
        let empty = Json::parse(r#"{"batch":[]}"#).unwrap();
        assert_eq!(Admission::units_for(&empty), 1, "empty batch still costs");
    }

    #[test]
    fn tenant_ids_are_validated() {
        for good in ["alice", "team-7", "a.b_c", &"x".repeat(MAX_TENANT_LEN)] {
            assert!(valid_tenant(good), "{good}");
        }
        for bad in ["", "a b", "a/b", "é", &"x".repeat(MAX_TENANT_LEN + 1)] {
            assert!(!valid_tenant(bad), "{bad}");
        }
    }

    /// End-to-end over a real socket: bind on an ephemeral port, serve,
    /// drive two tenants, shut down. Covers hello, dispatch, overload,
    /// and the clean-shutdown handshake in one place without spawning a
    /// process.
    #[test]
    fn listen_session_round_trips_and_shuts_down() {
        let args = Args::parse([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--credits",
            "2",
            "--workers",
            "2",
        ])
        .unwrap();
        let server = NetServer::bind(&args).unwrap();
        let addr = server.local_addr();
        assert!(server.announce_line().contains("listening"));
        let handle = std::thread::spawn(move || server.run());

        let mut client = Client::connect(addr);
        let ack = client.send(r#"{"hello":{"tenant":"alice"}}"#);
        assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{ack:?}");
        assert_eq!(
            ack.get("hello").unwrap().get("credits").unwrap().as_u64(),
            Some(2)
        );

        let resp = client
            .send(r#"{"op":"predict","platform":"henri","cores":4,"comp_numa":0,"comm_numa":0}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");

        // A batch past the 2-credit budget is a typed overload, and the
        // connection survives to serve the next request.
        let over =
            client.send(r#"{"id":"flood","batch":[{"op":"stats"},{"op":"stats"},{"op":"stats"}]}"#);
        assert_eq!(over.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            over.get("error").unwrap().get("class").unwrap().as_str(),
            Some("overload")
        );
        assert_eq!(over.get("id").and_then(Json::as_str), Some("flood"));
        let again = client.send(r#"{"op":"stats"}"#);
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            again.get("misses").and_then(Json::as_u64),
            Some(1),
            "the predict above calibrated exactly one model"
        );

        // A second connection without a hello is refused politely.
        let mut rude = Client::connect(addr);
        let refused = rude.send(r#"{"op":"stats"}"#);
        assert_eq!(refused.get("ok"), Some(&Json::Bool(false)));

        let bye = client.send(r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
        handle.join().unwrap().unwrap();
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        line: String,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect to test server");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
                line: String::new(),
            }
        }

        fn send(&mut self, request: &str) -> Json {
            writeln!(self.writer, "{request}").expect("request written");
            self.line.clear();
            self.reader
                .read_line(&mut self.line)
                .expect("response read");
            Json::parse(self.line.trim()).expect("response parses")
        }
    }
}
