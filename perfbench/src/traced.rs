//! The traced run: serve's composition rebuilt in-process, with every
//! layer timed from here, around calls into its public functions.
//! Nothing inside the program is instrumented.
//!
//! Five passes over the traced city (city 0 over the latency pass's
//! days):
//!
//! * **gateway, closed loop** — an in-process `Gateway` with the
//!   default config over the backend behind a timing `RequestService`,
//!   driven like the capacity pass; its events per CPU second (the
//!   gateway's threads, not the client's) against the child process's
//!   is `trace.overhead_frac`. It runs first, right after the child's
//!   capacity lifetime.
//! * **ledger** — one thread replays the stream along serve's path in
//!   the gateway's bursts: `parse_wire_msg` on each wire line, then
//!   `TrustedServer::location_update` / `try_handle_request` directly,
//!   then `ResponseEnvelope` encoding. The journal is a `BufWriter`
//!   file behind a timing sink. The layers' self times are summed
//!   against the pass's wall time; what they leave unexplained is
//!   `ledger.residual_frac`.
//! * **sharded drive** — the same replay through a 2-shard `ShardedTs`
//!   (hand-off per envelope, one `flush` per burst). It gives the
//!   `shard.*` metrics and, since group commit is the only journal
//!   path that syncs, `journal.sync*`. The served workloads run serve's
//!   single shard: sharded serving over TCP, bound to `fdatasync` on a
//!   shared disk, moved by 2–5× between runs of the same code.
//! * **probe** — a sequential server replays the stream again and
//!   times `algorithm1_first` on its live index at every request of a
//!   protected user (requests inside an LBQID window alone are too few
//!   on `commute` to support a p99).
//! * **gateway, open loop** — the in-process `Gateway` again, at the
//!   workload's rate for `--seconds`, like the latency pass.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hka::obs::{DurableSink, Journal};
use hka::prelude::*;

use crate::check;
use crate::metrics::Report;
use crate::served::{self, Conn, CpuSample, Wire};
use crate::stats::{median, percentile};
use crate::workload::{
    protected_server, protected_sharded, serve_backend, tolerance_of, Workload, K_FIRST,
};
use crate::LATENESS_P99_BOUND_US;

/// Shards of the in-process sharded drive that measures the shard layer.
const SHARD_PASS_SHARDS: usize = 2;

/// Envelopes the gateway's service thread takes per burst
/// (`GatewayConfig::default().batch`).
fn gateway_burst() -> usize {
    GatewayConfig::default().batch.max(1)
}

fn ns(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e9
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a timing thread panicked")
}

/// What the timing journal sink saw.
#[derive(Default)]
struct SinkStats {
    write_ns: Vec<f64>,
    sync_ns: Vec<f64>,
    total_ns: f64,
    bytes: u64,
    records: u64,
}

/// A journal sink that times and counts every call into the file
/// writer it wraps.
#[derive(Clone)]
struct TimingSink {
    inner: Arc<Mutex<BufWriter<File>>>,
    stats: Arc<Mutex<SinkStats>>,
}

impl Write for TimingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = lock(&self.inner).write(buf)?;
        let d = ns(t);
        let mut s = lock(&self.stats);
        s.write_ns.push(d);
        s.total_ns += d;
        s.bytes += n as u64;
        s.records += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = lock(&self.inner).flush();
        lock(&self.stats).total_ns += ns(t);
        r
    }
}

impl DurableSink for TimingSink {
    fn sync(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = {
            let mut w = lock(&self.inner);
            w.flush().and_then(|_| w.get_mut().sync_data())
        };
        let d = ns(t);
        let mut s = lock(&self.stats);
        s.sync_ns.push(d);
        s.total_ns += d;
        r
    }
}

/// What the timing service wrapper saw behind the gateway.
#[derive(Default)]
struct ServiceStats {
    busy_ns: f64,
    submits: u64,
    drains: u64,
    /// Per request: its own `submit` plus the `drain` that settled it.
    decide_ns: Vec<f64>,
    unsettled_ns: Vec<f64>,
}

/// A `RequestService` that times every call into the backend it wraps.
struct TimingService {
    inner: Box<dyn RequestService + Send>,
    stats: Arc<Mutex<ServiceStats>>,
}

impl RequestService for TimingService {
    fn submit(&mut self, env: &RequestEnvelope) {
        let t = Instant::now();
        self.inner.submit(env);
        let d = ns(t);
        let mut s = lock(&self.stats);
        s.busy_ns += d;
        s.submits += 1;
        if env.is_request() {
            s.unsettled_ns.push(d);
        }
    }

    fn drain(&mut self) -> Vec<ResponseEnvelope> {
        let t = Instant::now();
        let out = self.inner.drain();
        let d = ns(t);
        let mut s = lock(&self.stats);
        s.busy_ns += d;
        s.drains += 1;
        let settled: Vec<f64> = s.unsettled_ns.drain(..).map(|x| x + d).collect();
        s.decide_ns.extend(settled);
        out
    }

    fn mode(&self) -> ServerMode {
        self.inner.mode()
    }

    fn pseudonym_of(&self, user: UserId) -> Option<Pseudonym> {
        self.inner.pseudonym_of(user)
    }

    fn flush_journal(&mut self) -> std::io::Result<()> {
        self.inner.flush_journal()
    }

    fn note_slo_events(&mut self, events: &[hka::obs::SloEvent]) {
        self.inner.note_slo_events(events)
    }

    fn note_gateway_stats(&mut self, conns: u64, drains: u64, queue_depth: u64) {
        self.inner.note_gateway_stats(conns, drains, queue_depth)
    }
}

fn create(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn audit_file(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    check::audit(&bytes)?;
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Per-layer samples and self times of the ledger pass.
#[derive(Default)]
struct Ledger {
    wall_ns: f64,
    decode_loc_ns: Vec<f64>,
    decode_req_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    ingest_ns: Vec<f64>,
    request_ns: Vec<f64>,
    barrier_ns: Vec<f64>,
    backend_ns: f64,
    generalized: u64,
    epochs: u64,
}

enum Backend {
    Sequential(Box<TrustedServer>),
    Sharded(Box<ShardedTs>),
}

fn decode(wire: &Wire, i: usize, l: &mut Ledger) -> Result<RequestEnvelope, String> {
    let line = wire.line(i);
    let t = Instant::now();
    let msg = parse_wire_msg(line);
    let d = ns(t);
    match msg {
        Ok(WireMsg::Env(env)) => {
            if env.is_request() {
                l.decode_req_ns.push(d);
            } else {
                l.decode_loc_ns.push(d);
            }
            Ok(env)
        }
        other => Err(format!("line {i} decoded to {other:?}")),
    }
}

fn encode(result: &Result<RequestOutcome, TsError>, env_id: u64, mode: ServerMode, l: &mut Ledger) {
    let t = Instant::now();
    black_box(ResponseEnvelope::from_result(env_id, 0, result, mode, 0).to_wire());
    l.encode_ns.push(ns(t));
}

/// A ledger pass on `shards` shards (1 is serve's default path);
/// returns the samples and the journal sink's stats.
fn ledger_pass(
    shards: usize,
    world: &World,
    stream: &[RequestEnvelope],
    wire: &Wire,
    journal: &Path,
) -> Result<(Ledger, SinkStats), String> {
    let sink = TimingSink {
        inner: Arc::new(Mutex::new(BufWriter::new(create(journal)?))),
        stats: Arc::default(),
    };
    let mut backend = if shards > 1 {
        let mut ts = protected_sharded(world, shards);
        ts.attach_journal(Journal::new(Box::new(sink.clone()) as Box<dyn DurableSink>));
        Backend::Sharded(Box::new(ts))
    } else {
        let mut ts = protected_server(world);
        ts.attach_journal(Journal::new(
            Box::new(sink.clone()) as Box<dyn Write + Send + Sync>
        ));
        Backend::Sequential(Box::new(ts))
    };
    let mut l = Ledger::default();
    let burst = gateway_burst();
    let started = Instant::now();
    for (b, envs) in stream.chunks(burst).enumerate() {
        let mut burst_has_request = false;
        for j in 0..envs.len() {
            let env = decode(wire, b * burst + j, &mut l)?;
            let t = Instant::now();
            match (&mut backend, env.body) {
                (Backend::Sequential(ts), EnvelopeBody::Location) => {
                    ts.location_update(env.user, env.at);
                    l.ingest_ns.push(ns(t));
                }
                (Backend::Sequential(ts), EnvelopeBody::Request { service }) => {
                    let result = ts.try_handle_request(env.user, env.at, service);
                    l.request_ns.push(ns(t));
                    encode(&result, env.req_id, ts.mode(), &mut l);
                }
                (Backend::Sharded(ts), EnvelopeBody::Location) => {
                    ts.submit_location(env.user, env.at);
                    l.ingest_ns.push(ns(t));
                }
                (Backend::Sharded(ts), EnvelopeBody::Request { service }) => {
                    ts.submit_request(env.user, env.at, service);
                    l.ingest_ns.push(ns(t));
                    burst_has_request = true;
                }
            }
        }
        if let Backend::Sharded(ts) = &mut backend {
            // The burst's barrier: on the sharded backend a request is
            // decided inside the flush that settles its burst.
            let t = Instant::now();
            ts.flush();
            let d = ns(t);
            l.barrier_ns.push(d);
            if burst_has_request {
                l.request_ns.push(d);
            }
            let mode = ts.mode();
            for (pos, _, result) in ts.take_outcomes() {
                encode(&result, pos, mode, &mut l);
            }
        }
    }
    // Serve flushes its journal when it drains for shutdown.
    let t = Instant::now();
    let flushed = match &mut backend {
        Backend::Sequential(ts) => ts.flush_journal(),
        Backend::Sharded(ts) => ts.flush_journal(),
    };
    flushed.map_err(|e| format!("journal flush: {e}"))?;
    let final_flush_ns = ns(t);
    l.wall_ns = ns(started);
    let calls = if shards > 1 {
        &l.barrier_ns
    } else {
        &l.request_ns
    };
    l.backend_ns = l.ingest_ns.iter().chain(calls).sum::<f64>() + final_flush_ns;
    match &backend {
        Backend::Sequential(ts) => l.generalized = ts.log().stats().generalized() as u64,
        Backend::Sharded(ts) => {
            l.generalized = ts.stats().generalized() as u64;
            l.epochs = ts.epoch();
        }
    }
    drop(backend);
    let stats = std::mem::take(&mut *lock(&sink.stats));
    Ok((l, stats))
}

/// The probe pass: `algorithm1_first` on a sequential server's live
/// index at every request of a protected user, µs.
fn probe_pass(world: &World, stream: &[RequestEnvelope]) -> Vec<f64> {
    let mut ts = protected_server(world);
    let protected: std::collections::BTreeSet<UserId> = world.commuters().collect();
    let mut samples = Vec::new();
    for env in stream {
        match env.body {
            EnvelopeBody::Location => ts.location_update(env.user, env.at),
            EnvelopeBody::Request { service } => {
                let _ = ts.try_handle_request(env.user, env.at, service);
                if protected.contains(&env.user) {
                    let tol = tolerance_of(service);
                    let t = Instant::now();
                    black_box(algorithm1_first(
                        ts.index(),
                        &env.at,
                        env.user,
                        K_FIRST,
                        &tol,
                    ));
                    samples.push(ns(t) / 1e3);
                }
            }
        }
    }
    samples
}

/// An in-process gateway over serve's backend behind the timing wrapper.
fn spawn_gateway(
    world: &World,
    journal: &Path,
) -> Result<(Gateway, Arc<Mutex<ServiceStats>>), String> {
    let stats = Arc::new(Mutex::new(ServiceStats::default()));
    let inner = serve_backend(world, BufWriter::new(create(journal)?));
    let service = TimingService {
        inner,
        stats: Arc::clone(&stats),
    };
    let gw = Gateway::spawn("127.0.0.1:0", Box::new(service), GatewayConfig::default())
        .map_err(|e| format!("in-process gateway: {e}"))?;
    Ok((gw, stats))
}

fn stop_gateway(gw: Gateway, conn: &mut Conn) -> Result<(), String> {
    conn.shutdown_gateway()?;
    let mut service = gw.shutdown();
    service
        .flush_journal()
        .map_err(|e| format!("journal flush: {e}"))
}

fn per_k(count: f64, base: usize) -> f64 {
    count * 1e3 / base.max(1) as f64
}

fn counter(name: &str) -> u64 {
    hka::obs::global().snapshot().counter(name)
}

/// Runs the traced passes over `stream` (the traced city's) and
/// records every per-layer metric. Returns the requests sent.
#[allow(clippy::too_many_arguments)]
pub fn run(
    w: &Workload,
    world: &World,
    stream: &[RequestEnvelope],
    wire: &Wire,
    seconds: u64,
    dir: &Path,
    child_ev_per_cpu_s: f64,
    report: &mut Report,
) -> Result<u64, String> {
    let requests = stream.iter().filter(|e| e.is_request()).count();

    // Gateway, closed loop, first: right after the child's capacity
    // pass, so that the two meet the host in the same state.
    let journal = dir.join("traced-closed.jsonl");
    let (gw, stats) = spawn_gateway(world, &journal)?;
    let mut conn = Conn::connect(gw.addr())?;
    let cap = served::capacity_pass(&mut conn, stream, wire, CpuSample::of_this_process_but_me);
    stop_gateway(gw, &mut conn)?;
    let cap = cap?;
    audit_file(&journal)?;
    let traced_ev_per_cpu_s = cap.events as f64 / cap.cpu_s;
    let s = std::mem::take(&mut *lock(&stats));
    report.set("gateway.service_busy_frac", s.busy_ns / (cap.wall_s * 1e9));
    report.set(
        "gateway.burst_envelopes_mean",
        s.submits as f64 / s.drains.max(1) as f64,
    );
    let overhead = 1.0 - traced_ev_per_cpu_s / child_ev_per_cpu_s;
    report.set("trace.overhead_frac", overhead);
    println!(
        "traced gateway capacity {:.0} ev/s, {traced_ev_per_cpu_s:.0} ev/cpu-s against the child's {child_ev_per_cpu_s:.0} ev/cpu-s",
        cap.events as f64 / cap.wall_s
    );
    if overhead.abs() > 0.25 {
        println!("FLAG: trace overhead {overhead:.3}: the wrappers cost too much or the in-process mirror of serve has drifted");
        eprintln!("perfbench: FLAG: trace overhead {overhead:.3}");
    }

    // Serve's path, on serve's single shard.
    let unlink_counters = || counter("mixzone.unlinked") + counter("mixzone.infeasible");
    let unlinks0 = unlink_counters();
    let journal = dir.join("traced-ledger.jsonl");
    let (l, sink) = ledger_pass(1, world, stream, wire, &journal)?;
    audit_file(&journal)?;
    let unlink_attempts = unlink_counters() - unlinks0;

    let decode_ns: f64 = l.decode_loc_ns.iter().chain(&l.decode_req_ns).sum();
    let encode_ns: f64 = l.encode_ns.iter().sum();
    let journal_ns = sink.total_ns;
    let ts_self = l.backend_ns - journal_ns;
    let residual = 1.0 - (decode_ns + encode_ns + ts_self + journal_ns) / l.wall_ns;
    println!(
        "ledger ({} events, wall {:.3} s):",
        stream.len(),
        l.wall_ns / 1e9
    );
    for (layer, t) in [
        ("envelope decode", decode_ns),
        ("ts", ts_self),
        ("journal", journal_ns),
        ("envelope encode", encode_ns),
    ] {
        println!(
            "  {layer:<16} {:>10.3} ms {:>6.1}%",
            t / 1e6,
            100.0 * t / l.wall_ns
        );
    }
    println!("  {:<16} {:>10} {:>6.1}%", "residual", "", 100.0 * residual);
    if !(0.0..=0.25).contains(&residual) {
        println!("FLAG: ledger residual {residual:.3} is outside [0, 0.25]");
        eprintln!("perfbench: FLAG: ledger residual {residual:.3} is outside [0, 0.25]");
    }
    report.set(
        "envelope.decode_loc_ns",
        percentile(&l.decode_loc_ns, 50.0)?,
    );
    report.set(
        "envelope.decode_req_ns",
        percentile(&l.decode_req_ns, 50.0)?,
    );
    report.set("envelope.encode_resp_ns", percentile(&l.encode_ns, 50.0)?);
    report.set("ts.inproc_eps", stream.len() as f64 / (l.backend_ns / 1e9));
    report.set("ts.ingest_ns_p50", percentile(&l.ingest_ns, 50.0)?);
    report.set("ts.request_us_p50", percentile(&l.request_ns, 50.0)? / 1e3);
    report.set("ts.request_us_p99", percentile(&l.request_ns, 99.0)? / 1e3);
    report.set(
        "ts.algo1_frac",
        l.generalized as f64 / requests.max(1) as f64,
    );
    report.set(
        "ts.unlink_attempts_per_kreq",
        per_k(unlink_attempts as f64, requests),
    );
    report.set(
        "journal.records_per_kreq",
        per_k(sink.records as f64, requests),
    );
    report.set("journal.bytes_per_kreq", per_k(sink.bytes as f64, requests));
    report.set(
        "journal.write_us_p50",
        percentile(&sink.write_ns, 50.0)? / 1e3,
    );

    // The shard layer: the same stream through a sharded backend, whose
    // group commit is also the only journal path that syncs.
    let (rebuilds0, memo0) = (counter("union.rebuilds"), counter("union.memo_hits"));
    let journal = dir.join("traced-sharded.jsonl");
    let (sl, ssink) = ledger_pass(SHARD_PASS_SHARDS, world, stream, wire, &journal)?;
    audit_file(&journal)?;
    println!(
        "sharded drive ({SHARD_PASS_SHARDS} shards): {} flushes, {} epochs, {} fdatasyncs, {:.3} s in the backend",
        sl.barrier_ns.len(),
        sl.epochs,
        ssink.sync_ns.len(),
        sl.backend_ns / 1e9
    );
    report.set(
        "journal.syncs_per_kreq",
        per_k(ssink.sync_ns.len() as f64, requests),
    );
    report.set(
        "journal.sync_us_p50",
        percentile(&ssink.sync_ns, 50.0)? / 1e3,
    );
    report.set(
        "shard.barrier_us_p50",
        percentile(&sl.barrier_ns, 50.0)? / 1e3,
    );
    report.set(
        "shard.barrier_us_p99",
        percentile(&sl.barrier_ns, 99.0)? / 1e3,
    );
    report.set("shard.epochs_per_kreq", per_k(sl.epochs as f64, requests));
    report.set(
        "shard.union_rebuilds",
        (counter("union.rebuilds") - rebuilds0) as f64,
    );
    report.set(
        "shard.union_memo_hits_per_kreq",
        per_k((counter("union.memo_hits") - memo0) as f64, requests),
    );
    report.set("ledger.residual_frac", residual);

    // Probe pass.
    let probes = probe_pass(world, stream);
    report.set("algo1.first_us_p50", percentile(&probes, 50.0)?);
    report.set("algo1.first_us_p99", percentile(&probes, 99.0)?);

    // Gateway, open loop at the workload's rate.
    let n = ((w.offered_eps * seconds as f64) as usize).min(stream.len());
    let journal = dir.join("traced-open.jsonl");
    let (gw, stats) = spawn_gateway(world, &journal)?;
    let mut conn = Conn::connect(gw.addr())?;
    let lat = served::latency_pass(&mut conn, &stream[..n], wire, w.offered_eps, 1);
    let snap = gw.stats().snapshot();
    stop_gateway(gw, &mut conn)?;
    let lat = lat?;
    audit_file(&journal)?;
    let s = std::mem::take(&mut *lock(&stats));
    let open_requests = lat.requests;
    let open_locations = n - open_requests;
    report.set(
        "gateway.overloads_per_kreq",
        per_k(snap.overloads as f64, open_requests),
    );
    report.set(
        "gateway.shed_per_kloc",
        per_k(snap.shed_locations as f64, open_locations),
    );
    let p50_ms = percentile(&lat.latency_ms(), 50.0)?;
    if !p50_ms.is_finite() {
        return Err("more than half of the traced requests were refused".into());
    }
    report.set(
        "gateway.wire_us_p50",
        p50_ms * 1e3 - percentile(&s.decide_ns, 50.0)? / 1e3,
    );
    let late_p99 = percentile(&lat.lateness_us, 99.0)?;
    println!(
        "traced open loop: {n} events at {} ev/s, {open_requests} requests, {} overloads, {} shed; median decision {:.1} us; generator lateness p99 {late_p99:.1} us, max {:.1} us, {:.0} ms stolen",
        w.offered_eps,
        snap.overloads,
        snap.shed_locations,
        median(&s.decide_ns) / 1e3,
        lat.lateness_us.iter().copied().fold(0.0, f64::max),
        lat.steal_ms[0],
    );
    if late_p99 > LATENESS_P99_BOUND_US {
        println!(
            "FLAG: invalid traced open loop: generator lateness p99 {late_p99:.1} us exceeds {LATENESS_P99_BOUND_US} us, so the gateway.* overload, shed and wire figures include the generator's delay"
        );
    }
    Ok((requests + open_requests) as u64)
}
