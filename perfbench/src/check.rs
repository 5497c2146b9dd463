//! The correctness gate: an in-process oracle run of the capacity
//! stream, and the journal audit every served journal must pass.

use std::io::Write;
use std::sync::{Arc, Mutex};

use hka::audit::{replay, AuditConfig};
use hka::obs::verify_chain;
use hka::prelude::*;

use crate::workload::{serve_backend, WINDOW};

/// An in-memory journal sink whose bytes stay readable after the
/// server that owns the journal is gone.
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("journal buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the in-process oracle produced for a stream.
pub struct Reference {
    /// One response per request, in request-id order.
    pub responses: Vec<ResponseEnvelope>,
    /// The journal bytes.
    pub journal: Vec<u8>,
}

/// Replays `stream` through the same backend serve builds, in the
/// capacity pass's windows, through the `RequestService` seam the
/// gateway drives.
pub fn reference(world: &World, stream: &[RequestEnvelope]) -> Reference {
    let buf = SharedBuf::default();
    let mut service = serve_backend(world, buf.clone());
    let mut responses = Vec::new();
    for window in stream.chunks(WINDOW) {
        for env in window {
            service.submit(env);
        }
        responses.extend(service.drain());
    }
    service
        .flush_journal()
        .expect("an in-memory journal cannot fail to flush");
    drop(service);
    responses.sort_by_key(|r| r.req_id);
    let journal = std::mem::take(&mut *buf.0.lock().expect("journal buffer poisoned"));
    Reference { responses, journal }
}

/// The privacy side of the trade-off, as sums read off audited
/// journals; add the sums of several journals to pool them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Privacy {
    /// Generalized forwards that kept HK-anonymity.
    pub hk_ok: u64,
    /// Generalized forwards.
    pub generalized: u64,
    /// Sum of the generalized contexts' areas, m².
    pub area_sum: f64,
    /// Pseudonym changes.
    pub unlinks: u64,
    /// Decided requests.
    pub requests: u64,
    /// Journal records.
    pub records: u64,
}

impl Privacy {
    /// Adds another journal's sums.
    pub fn add(&mut self, other: &Privacy) {
        self.hk_ok += other.hk_ok;
        self.generalized += other.generalized;
        self.area_sum += other.area_sum;
        self.unlinks += other.unlinks;
        self.requests += other.requests;
        self.records += other.records;
    }

    /// Generalized forwards that kept HK-anonymity ÷ generalized forwards.
    pub fn hk_success_frac(&self) -> f64 {
        self.hk_ok as f64 / self.generalized.max(1) as f64
    }

    /// Mean area of the generalized contexts forwarded, m².
    pub fn gen_area_m2(&self) -> f64 {
        self.area_sum / self.generalized.max(1) as f64
    }

    /// Pseudonym changes per decided request.
    pub fn unlink_freq(&self) -> f64 {
        self.unlinks as f64 / self.requests.max(1) as f64
    }
}

/// Verifies the hash chain and replays the journal through `hka-audit`;
/// any chain failure, Theorem-1 / fail-closed violation or schema
/// issue is an error.
pub fn audit(journal: &[u8]) -> Result<Privacy, String> {
    let chain = verify_chain(journal).map_err(|e| format!("journal chain: {e}"))?;
    let outcome = replay(journal, AuditConfig::default());
    if !outcome.chain.verified() {
        return Err(format!("audit chain: {:?}", outcome.chain.error));
    }
    if !outcome.violations.is_empty() {
        return Err(format!(
            "audit found {} Theorem-1 / fail-closed violation(s), first: {:?}",
            outcome.violations.len(),
            outcome.violations[0]
        ));
    }
    if !outcome.schema_issues.is_empty() {
        return Err(format!("audit schema issues: {:?}", outcome.schema_issues));
    }
    let t = &outcome.totals;
    let generalized = t.forwarded_ok + t.forwarded_clamped;
    Ok(Privacy {
        hk_ok: t.forwarded_ok,
        generalized,
        area_sum: outcome.mean_area() * generalized as f64,
        unlinks: t.unlinks,
        requests: t.requests(),
        records: chain.records.len() as u64,
    })
}

/// Compares served responses with the oracle's, request by request.
pub fn same_decisions(
    served: &[ResponseEnvelope],
    oracle: &[ResponseEnvelope],
) -> Result<(), String> {
    if served.len() != oracle.len() {
        return Err(format!(
            "{} responses served, {} expected",
            served.len(),
            oracle.len()
        ));
    }
    for (s, o) in served.iter().zip(oracle) {
        if s != o {
            return Err(format!(
                "request {}: served {} but the in-process run decided {}",
                o.req_id,
                s.to_wire(),
                o.to_wire()
            ));
        }
    }
    Ok(())
}
