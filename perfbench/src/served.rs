//! The system under test: `hka-sim serve` as a child process, driven
//! over one loopback TCP connection.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hka::prelude::*;

use crate::stats::percentile;
use crate::workload::{Workload, WINDOW, WINDOWS_IN_FLIGHT};

/// How long any single read from the server may block before the run
/// is declared hung.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One `hka-sim serve` process, from spawn to its `serving on` banner.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The bound address from the banner.
    pub addr: SocketAddr,
    /// Spawn → banner, seconds.
    pub setup_s: f64,
}

impl Server {
    /// Spawns serve for `workload` on the world `(seed, days)` with an
    /// `inflight`-deep queue and a journal at `journal`, and waits for
    /// the banner.
    pub fn spawn(
        hka_sim: &Path,
        workload: &Workload,
        seed: u64,
        days: i64,
        inflight: usize,
        journal: &Path,
    ) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(hka_sim)
            .args(workload.serve_args(seed, days, inflight))
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hka_sim.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let setup_s = started.elapsed().as_secs_f64();
        let parsed = match read {
            Ok(_) => banner
                .strip_prefix("serving on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let Some(addr) = parsed else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("serve printed no banner (got {banner:?})"));
        };
        Ok(Server {
            child,
            stdout,
            addr,
            setup_s,
        })
    }

    /// Serve's on-CPU time so far (see [`CpuSample::of`]).
    pub fn cpu(&self) -> Result<CpuSample, String> {
        CpuSample::of(self.child.id(), None)
    }

    /// Sends the wire `shutdown` op on `conn`, waits for `bye` and for
    /// the process to exit, and requires exit code 0. Returns serve's
    /// closing report.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<String, String> {
        let result = conn.shutdown_gateway();
        if let Err(e) = result {
            let _ = self.child.kill();
            let _ = self.child.wait();
            return Err(format!("shutdown: {e}"));
        }
        let mut report = String::new();
        let _ = self.stdout.read_to_string(&mut report);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for serve: {e}"))?;
        if !status.success() {
            return Err(format!("serve exited with {status}"));
        }
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server still running here belongs to a failed run: stop it
        // so no process outlives the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Per-thread on-CPU ns of a process at one moment.
pub struct CpuSample(BTreeMap<u32, u64>);

impl CpuSample {
    /// On-CPU time of each thread of process `pid` but `skip`, ns by
    /// thread id, from `/proc/<pid>/task/<tid>/schedstat`. The kernel
    /// keeps time the hypervisor stole from the guest out of these
    /// counts, so a difference of two samples is the CPU the threads
    /// themselves used, however busy the host was. A thread on a CPU
    /// at the moment of reading is counted only up to its last
    /// scheduler tick; serve's threads sit idle at both ends of a
    /// capacity pass.
    pub fn of(pid: u32, skip: Option<u32>) -> Result<CpuSample, String> {
        let tasks = format!("/proc/{pid}/task");
        let mut ns = BTreeMap::new();
        let entries = std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{tasks}: {e}"))?;
            let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            if Some(tid) == skip {
                continue;
            }
            // A thread that ended since the directory was listed has no
            // file left; it used no CPU this sample can attribute.
            let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
                continue;
            };
            let on_cpu = text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{tasks}/{tid}/schedstat: unreadable {text:?}"))?;
            ns.insert(tid, on_cpu);
        }
        Ok(CpuSample(ns))
    }

    /// This process's threads but the calling one: an in-process
    /// server's CPU, without the client driving it from this thread.
    pub fn of_this_process_but_me() -> Result<CpuSample, String> {
        let me = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok())
            .ok_or("cannot tell this thread's id from /proc/thread-self")?;
        CpuSample::of(std::process::id(), Some(me))
    }

    /// Seconds of CPU used between `self` and the later `after`. A
    /// thread started in between counts from zero. A thread that ended
    /// in between is lost, so the interval must not span one: serve's
    /// gateway threads live as long as the connection.
    pub fn seconds_until(&self, after: &CpuSample) -> f64 {
        let ns: u64 = after
            .0
            .iter()
            .map(|(tid, &ns)| ns.saturating_sub(self.0.get(tid).copied().unwrap_or(0)))
            .sum();
        ns as f64 * 1e-9
    }
}

/// The client side of one connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to a gateway.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("socket clone: {e}"))?,
        );
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    fn recv(&mut self, line: &mut String) -> Result<WireReply, String> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("gateway closed the connection".into()),
            Ok(_) => parse_wire_reply(line).map_err(|e| format!("bad reply {line:?}: {e}")),
            Err(e) => Err(format!("reading replies: {e}")),
        }
    }

    /// Sends the wire `shutdown` op and waits for `bye`.
    pub fn shutdown_gateway(&mut self) -> Result<(), String> {
        self.writer
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("send shutdown: {e}"))?;
        let mut line = String::new();
        loop {
            match self.recv(&mut line) {
                Ok(WireReply::Bye) => return Ok(()),
                Ok(WireReply::Resp(r)) => {
                    return Err(format!(
                        "response {} arrived after the last drain",
                        r.req_id
                    ))
                }
                Ok(_) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Every envelope's wire line, newline included, back to back —
/// encoded before any clock starts, so the generator's own encoding is
/// never measured.
pub struct Wire {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Wire {
    /// Encodes `stream`.
    pub fn encode(stream: &[RequestEnvelope]) -> Wire {
        let mut bytes = Vec::with_capacity(stream.len() * 96);
        let mut ends = Vec::with_capacity(stream.len());
        for e in stream {
            bytes.extend_from_slice(e.to_wire().as_bytes());
            bytes.push(b'\n');
            ends.push(bytes.len());
        }
        Wire { bytes, ends }
    }

    /// The lines of envelopes `from..to`.
    pub fn lines(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        let end = if to == 0 { 0 } else { self.ends[to - 1] };
        &self.bytes[start..end]
    }

    /// Line `i` without its newline.
    pub fn line(&self, i: usize) -> &str {
        let l = self.lines(i, i + 1);
        std::str::from_utf8(&l[..l.len() - 1]).expect("wire lines are UTF-8")
    }
}

const DRAIN: &[u8] = b"{\"op\":\"drain\"}\n";

/// What a closed-loop capacity pass saw.
pub struct Capacity {
    /// Envelopes sent.
    pub events: usize,
    /// First send → last `drained`, seconds.
    pub wall_s: f64,
    /// CPU seconds serve used over the same interval, all threads.
    pub cpu_s: f64,
    /// Every response, in request-id order.
    pub responses: Vec<ResponseEnvelope>,
}

/// Closed loop: sends the stream in windows of [`WINDOW`] envelopes,
/// each followed by a `drain`, and keeps at most [`WINDOWS_IN_FLIGHT`]
/// windows unanswered: the next window goes out when the oldest one's
/// `drained` arrives. Every command still in serve's queue belongs to
/// an unanswered window, so the queue never holds more than the
/// windows in flight — fewer than serve's inflight depth — and any
/// refusal is an error. Keeping several windows in flight keeps the
/// server busy instead of idle for a round trip per window.
pub fn capacity_pass(
    conn: &mut Conn,
    stream: &[RequestEnvelope],
    wire: &Wire,
    server_cpu: impl Fn() -> Result<CpuSample, String>,
) -> Result<Capacity, String> {
    let requests = stream.iter().filter(|e| e.is_request()).count();
    let mut responses = Vec::with_capacity(requests);
    let windows = stream.len().div_ceil(WINDOW);
    let mut buf = Vec::with_capacity(WINDOW * 96);
    let mut line = String::new();
    let (mut sent, mut answered) = (0usize, 0usize);
    let cpu_before = server_cpu()?;
    let started = Instant::now();
    while answered < windows {
        while sent < windows && sent - answered < WINDOWS_IN_FLIGHT {
            let from = sent * WINDOW;
            buf.clear();
            buf.extend_from_slice(wire.lines(from, (from + WINDOW).min(stream.len())));
            buf.extend_from_slice(DRAIN);
            conn.writer
                .write_all(&buf)
                .map_err(|e| format!("send: {e}"))?;
            sent += 1;
        }
        match conn.recv(&mut line)? {
            WireReply::Resp(r) => responses.push(r),
            WireReply::Drained { .. } => answered += 1,
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_before.seconds_until(&server_cpu()?);
    if responses.len() != requests {
        return Err(format!(
            "{} of {requests} requests answered",
            responses.len()
        ));
    }
    if let Some(r) = responses
        .iter()
        .find(|r| r.detail == "overload" || r.outcome == WireOutcome::Rejected)
    {
        return Err(format!(
            "capacity pass refused request {}: {}",
            r.req_id, r.detail
        ));
    }
    responses.sort_by_key(|r| r.req_id);
    Ok(Capacity {
        events: stream.len(),
        wall_s,
        cpu_s,
        responses,
    })
}

/// What an open-loop latency pass saw.
pub struct Latency {
    /// Requests sent.
    pub requests: usize,
    /// One `(envelope index, scheduled send → response in ms)` per
    /// request, in arrival order; a refusal reads infinite.
    pub answers: Vec<(usize, f64)>,
    /// Requests answered `overload` or `rejected`.
    pub refused: usize,
    /// Scheduled send → actual send, µs, one per envelope in order.
    pub lateness_us: Vec<f64>,
    /// CPU time the hypervisor stole from this host while each segment
    /// of the schedule was sent, ms; one entry per segment.
    pub steal_ms: Vec<f64>,
    /// Envelopes sent.
    pub events: usize,
}

impl Latency {
    /// Every request's latency, ms, refusals infinite.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.answers.iter().map(|&(_, ms)| ms).collect()
    }

    /// The pass cut into its equal runs of the schedule, each with the
    /// generator's lateness over its envelopes, the CPU time stolen
    /// while it was sent and the latencies of its requests.
    pub fn segments(&self) -> Result<Vec<Segment>, String> {
        let count = self.steal_ms.len();
        let bounds = |s: usize| s * self.events / count;
        let mut segments = (0..count)
            .map(|s| {
                Ok(Segment {
                    lateness_p99_us: percentile(&self.lateness_us[bounds(s)..bounds(s + 1)], 99.0)?,
                    steal_ms: self.steal_ms[s],
                    latency_ms: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        for &(i, ms) in &self.answers {
            segments[i * count / self.events].latency_ms.push(ms);
        }
        Ok(segments)
    }
}

/// One run of a latency pass's schedule.
pub struct Segment {
    /// The generator's p99 lateness over the segment's envelopes, µs.
    pub lateness_p99_us: f64,
    /// CPU time stolen from the host while the segment was sent, ms.
    pub steal_ms: f64,
    /// Its requests' latencies, ms, refusals infinite.
    pub latency_ms: Vec<f64>,
}

impl Segment {
    /// The share of requests answered within `limit` ms; a refusal
    /// misses every limit.
    pub fn within(&self, limit: f64) -> f64 {
        let n = self.latency_ms.len().max(1) as f64;
        self.latency_ms.iter().filter(|&&ms| ms <= limit).count() as f64 / n
    }

    /// The share of requests the backend answered rather than refused.
    pub fn served(&self) -> f64 {
        let n = self.latency_ms.len().max(1) as f64;
        self.latency_ms.iter().filter(|ms| ms.is_finite()).count() as f64 / n
    }
}

/// Open loop: envelope `i` is due `i / rate` seconds after the start,
/// and is sent at its due time whatever the server does. Each request
/// is timed from when it was due, so a stall is charged to every
/// request it delays. One sender thread paces, spinning between due
/// times (it keeps one CPU busy for the pass: a sleeping sender wakes
/// only when the host next schedules its CPU, which on a small shared
/// host made it milliseconds late); this thread reads.
pub fn latency_pass(
    conn: &mut Conn,
    stream: &[RequestEnvelope],
    wire: &Wire,
    rate: f64,
    segments: usize,
) -> Result<Latency, String> {
    let n = stream.len();
    let boundary = |k: usize| k * n / segments;
    let requests = stream.iter().filter(|e| e.is_request()).count();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut writer = conn
        .writer
        .try_clone()
        .map_err(|e| format!("socket clone: {e}"))?;
    let start = Instant::now();
    let (answers, refused, (lateness_us, steal_ms)) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(Vec<f64>, Vec<f64>), String> {
            let mut lateness = Vec::with_capacity(n);
            let mut steal = vec![host_steal_ms()?];
            let mut sent = 0usize;
            while sent < n {
                let now = start.elapsed();
                if due(sent) > now {
                    std::thread::yield_now();
                    continue;
                }
                // Everything due by now goes out in one write.
                let upto = ((now.as_secs_f64() * rate) as usize + 1).clamp(sent + 1, n);
                writer
                    .write_all(wire.lines(sent, upto))
                    .map_err(|e| format!("send: {e}"))?;
                let written = start.elapsed();
                for i in sent..upto {
                    lateness.push((written - due(i)).as_secs_f64() * 1e6);
                }
                sent = upto;
                while steal.len() <= segments && sent >= boundary(steal.len()) {
                    steal.push(host_steal_ms()?);
                }
            }
            writer.write_all(DRAIN).map_err(|e| format!("send: {e}"))?;
            let per_segment = steal.windows(2).map(|w| w[1] - w[0]).collect();
            Ok((lateness, per_segment))
        });
        let received = (|| -> Result<(Vec<(usize, f64)>, usize), String> {
            let mut answers = Vec::with_capacity(requests);
            let mut seen = vec![false; n];
            let mut refused = 0usize;
            let mut line = String::new();
            loop {
                match conn.recv(&mut line)? {
                    WireReply::Resp(r) => {
                        let at = start.elapsed();
                        let i = usize::try_from(r.req_id)
                            .ok()
                            .filter(|&i| i < n && stream[i].is_request() && !seen[i])
                            .ok_or_else(|| format!("unexpected response id {}", r.req_id))?;
                        seen[i] = true;
                        if r.detail == "overload" || r.outcome == WireOutcome::Rejected {
                            refused += 1;
                            // A refused request misses every latency limit.
                            answers.push((i, f64::INFINITY));
                        } else {
                            answers.push((i, at.saturating_sub(due(i)).as_secs_f64() * 1e3));
                        }
                    }
                    WireReply::Drained { .. } => break,
                    other => return Err(format!("unexpected reply {other:?}")),
                }
            }
            Ok((answers, refused))
        })();
        let sent = sender.join().expect("sender thread never panics")?;
        let (answers, refused) = received?;
        Ok::<_, String>((answers, refused, sent))
    })?;
    if answers.len() != requests {
        return Err(format!(
            "{} of {requests} requests got a response",
            answers.len()
        ));
    }
    Ok(Latency {
        requests,
        answers,
        refused,
        lateness_us,
        steal_ms,
        events: n,
    })
}

/// CPU time the hypervisor has stolen from this host since boot, ms,
/// summed over its CPUs: the `steal` column of `/proc/stat`, in the
/// kernel's 10 ms user-visible ticks.
fn host_steal_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks * 10.0)
        .ok_or_else(|| "/proc/stat: no steal column".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_split_the_schedule_and_judge_each_part() {
        // 4000 envelopes, a request every 10th; the generator ran 2 ms
        // late through the second half of the schedule.
        let events = 4000;
        let lateness_us = (0..events)
            .map(|i| if i < 2000 { 10.0 } else { 2000.0 })
            .collect();
        let answers = (0..events)
            .step_by(10)
            .map(|i| (i, if i % 20 == 0 { 0.5 } else { f64::INFINITY }))
            .collect();
        let lat = Latency {
            requests: 400,
            answers,
            refused: 200,
            lateness_us,
            steal_ms: vec![0.0, 30.0],
            events,
        };
        let segs = lat.segments().unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].lateness_p99_us, 10.0);
        assert_eq!(segs[1].lateness_p99_us, 2000.0);
        assert_eq!(segs[1].steal_ms, 30.0);
        for s in &segs {
            assert_eq!(s.latency_ms.len(), 200);
            assert_eq!(s.served(), 0.5);
            assert_eq!(s.within(1.0), 0.5);
            assert_eq!(s.within(0.1), 0.0);
        }
    }

    #[test]
    fn segments_refuse_too_few_envelopes_for_a_p99() {
        let lat = |segments| Latency {
            requests: 0,
            answers: Vec::new(),
            refused: 0,
            lateness_us: vec![1.0; 1500],
            steal_ms: vec![0.0; segments],
            events: 1500,
        };
        assert!(lat(1).segments().is_ok());
        assert!(lat(2).segments().is_err());
    }
}
