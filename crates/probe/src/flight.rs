//! The flight recorder: an always-on, bounded ring buffer of recent
//! events, per thread.
//!
//! Every layer that can explain a failed solve feeds it — comm records
//! p2p and collective operations (op, peer, bytes, tag), the Krylov
//! monitor records per-iteration residuals and the final verdict, the
//! fault injector records every rule firing, and the resilient driver
//! records attempt starts/outcomes/swaps. The buffer is fixed-capacity
//! (default 256 records, `RSPARSE_FLIGHT_CAPACITY` overrides) and every
//! record is `Copy` with `&'static str` names, so the steady state never
//! allocates: the ring is allocated once on a thread's first record and
//! overwritten in place forever after.
//!
//! Recording is on by default — it is the black box that survives a
//! crash-landing solve — and costs one relaxed atomic load plus a
//! thread-local ring write per event. `RSPARSE_FLIGHT=off` (or
//! [`set_enabled`]) reduces every record site to the single relaxed
//! load, which is what the `flight` bench guard pins down.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::recorder::{self, epoch};

/// Default ring capacity (records per thread) when
/// `RSPARSE_FLIGHT_CAPACITY` is unset.
pub const DEFAULT_CAPACITY: usize = 256;

/// One flight-recorder event payload. `Copy` with `&'static str` names so
/// pushing a record never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightKind {
    /// A point-to-point or collective communication operation.
    Comm {
        /// Operation name (`"send"`, `"recv"`, `"allreduce"`, ...).
        op: &'static str,
        /// World rank of the peer for p2p ops; `-1` for collectives.
        peer: i64,
        /// Bytes accounted to the op (element size for p2p, matching the
        /// byte counters).
        bytes: u64,
        /// Message tag for p2p ops; `-1` for collectives.
        tag: i64,
    },
    /// One Krylov iteration's residual norm.
    Iter {
        /// Iteration number (1-based, as the Monitor counts).
        iteration: u64,
        /// Residual norm at that iteration.
        residual: f64,
    },
    /// The verdict that stopped a Krylov solve.
    Verdict {
        /// Stable short name of the `ConvergedReason`.
        verdict: &'static str,
        /// Iterations performed when the verdict was reached.
        iteration: u64,
    },
    /// A fault-injection rule fired.
    Fault {
        /// Index of the rule within the armed `FaultPlan`.
        rule: u32,
        /// Operation the rule intercepted.
        op: &'static str,
        /// Injection kind (`"error"`, `"corrupt"`, ...).
        kind: &'static str,
    },
    /// A resilient-driver attempt transition.
    Attempt {
        /// Backend slot in the retry chain.
        slot: u32,
        /// Attempt number on that slot (1-based; 0 for swap markers).
        attempt: u32,
        /// Phase: `"start"`, `"ok"`, `"retry"`, `"swap"`, `"exhausted"`.
        phase: &'static str,
    },
}

/// A timestamped flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecord {
    /// Microseconds since the probe epoch (shared with chrome traces).
    pub ts_us: u64,
    /// The event payload.
    pub kind: FlightKind,
}

// --------------------------------------------------------------------------
// Global on/off switch
// --------------------------------------------------------------------------

const FLIGHT_UNSET: u8 = u8::MAX;
const FLIGHT_ON: u8 = 1;
const FLIGHT_OFF: u8 = 0;

static FLIGHT: AtomicU8 = AtomicU8::new(FLIGHT_UNSET);

fn enabled_from_env() -> bool {
    match std::env::var("RSPARSE_FLIGHT") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "none" | "false"
        ),
        // Always-on by default: the black box must already be recording
        // when the failure nobody predicted arrives.
        Err(_) => true,
    }
}

/// Whether the flight recorder is capturing events. One relaxed load once
/// initialized from `RSPARSE_FLIGHT` (default on).
#[inline]
pub fn enabled() -> bool {
    let raw = FLIGHT.load(Ordering::Relaxed);
    if raw == FLIGHT_UNSET {
        let on = enabled_from_env();
        let v = if on { FLIGHT_ON } else { FLIGHT_OFF };
        let _ = FLIGHT.compare_exchange(FLIGHT_UNSET, v, Ordering::Relaxed, Ordering::Relaxed);
        on
    } else {
        raw == FLIGHT_ON
    }
}

/// Programmatically enable or disable flight recording (overrides the
/// environment). The `flight` bench guard and tests use this.
pub fn set_enabled(on: bool) {
    FLIGHT.store(if on { FLIGHT_ON } else { FLIGHT_OFF }, Ordering::Relaxed);
}

/// Ring capacity in records per thread, read once from
/// `RSPARSE_FLIGHT_CAPACITY` (minimum 16, default [`DEFAULT_CAPACITY`]).
pub fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("RSPARSE_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|c| c.max(16))
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

// --------------------------------------------------------------------------
// The ring
// --------------------------------------------------------------------------

/// Fixed-capacity overwrite-oldest ring. The buffer is allocated at full
/// capacity on the first push and then only overwritten.
#[derive(Debug, Default)]
pub(crate) struct FlightRing {
    buf: Vec<FlightRecord>,
    /// Next write position once the buffer is full.
    head: usize,
    /// Total records ever pushed (so readers can tell how much history
    /// the ring has discarded).
    total: u64,
}

impl FlightRing {
    #[inline]
    pub(crate) fn push(&mut self, rec: FlightRecord) {
        if self.buf.capacity() == 0 {
            // One-time allocation on the thread's first record; the
            // capacity is pinned here so the steady state never touches
            // the env-derived OnceLock again.
            self.buf.reserve_exact(capacity());
        }
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
        }
        self.total += 1;
    }

    /// Records in chronological order (oldest retained first).
    pub(crate) fn tail(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }
}

/// Record one event into the current thread's ring. When recording is
/// disabled this is a single relaxed atomic load.
#[inline]
pub fn record(kind: FlightKind) {
    if !enabled() {
        return;
    }
    // `as_micros()` would divide a u128; seconds + subsec stay in u64.
    let e = epoch().elapsed();
    let ts_us = e.as_secs() * 1_000_000 + u64::from(e.subsec_micros());
    recorder::with_local(|r| r.flight_push(FlightRecord { ts_us, kind }));
}

/// Snapshot the current thread's ring in chronological order, plus the
/// total number of records ever pushed on this thread.
pub fn local_tail() -> (Vec<FlightRecord>, u64) {
    recorder::with_local(|r| r.flight_tail())
}

/// Snapshot every registered recorder's ring, merged by rank: ranked
/// threads first (records from threads sharing a rank interleaved by
/// timestamp), then one `None` entry for untagged threads if they
/// recorded anything.
pub fn tails_by_rank() -> Vec<(Option<usize>, Vec<FlightRecord>)> {
    use std::collections::BTreeMap;
    let mut by_rank: BTreeMap<usize, Vec<FlightRecord>> = BTreeMap::new();
    let mut unranked: Vec<FlightRecord> = Vec::new();
    for r in recorder::all_recorders() {
        let (tail, _) = r.flight_tail();
        if tail.is_empty() {
            continue;
        }
        match r.rank() {
            Some(rank) => by_rank.entry(rank).or_default().extend(tail),
            None => unranked.extend(tail),
        }
    }
    let mut out: Vec<(Option<usize>, Vec<FlightRecord>)> = Vec::new();
    for (rank, mut tail) in by_rank {
        tail.sort_by_key(|r| r.ts_us);
        out.push((Some(rank), tail));
    }
    if !unranked.is_empty() {
        unranked.sort_by_key(|r| r.ts_us);
        out.push((None, unranked));
    }
    out
}

/// Residual history reconstructed from the current thread's `Iter`
/// events, in recording order.
pub fn local_residual_history() -> Vec<f64> {
    local_tail()
        .0
        .iter()
        .filter_map(|r| match r.kind {
            FlightKind::Iter { residual, .. } => Some(residual),
            _ => None,
        })
        .collect()
}

// --------------------------------------------------------------------------
// JSON serialization
// --------------------------------------------------------------------------

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        // NaN/inf are not JSON; null keeps the document parseable and is
        // itself a diagnostic (a poisoned residual).
        "null".to_string()
    }
}

/// Serialize one record as a JSON object.
pub fn record_json(rec: &FlightRecord) -> String {
    let t = rec.ts_us;
    match rec.kind {
        FlightKind::Comm { op, peer, bytes, tag } => format!(
            "{{\"t_us\":{t},\"type\":\"comm\",\"op\":\"{op}\",\"peer\":{peer},\"bytes\":{bytes},\"tag\":{tag}}}"
        ),
        FlightKind::Iter { iteration, residual } => format!(
            "{{\"t_us\":{t},\"type\":\"iter\",\"iteration\":{iteration},\"residual\":{}}}",
            json_f64(residual)
        ),
        FlightKind::Verdict { verdict, iteration } => format!(
            "{{\"t_us\":{t},\"type\":\"verdict\",\"verdict\":\"{verdict}\",\"iteration\":{iteration}}}"
        ),
        FlightKind::Fault { rule, op, kind } => format!(
            "{{\"t_us\":{t},\"type\":\"fault\",\"rule\":{rule},\"op\":\"{op}\",\"kind\":\"{kind}\"}}"
        ),
        FlightKind::Attempt { slot, attempt, phase } => format!(
            "{{\"t_us\":{t},\"type\":\"attempt\",\"slot\":{slot},\"attempt\":{attempt},\"phase\":\"{phase}\"}}"
        ),
    }
}

/// Serialize a slice of records as a JSON array.
pub fn tail_json(records: &[FlightRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&record_json(r));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The flight switch is process-global; serialize against other tests
    // that flip it (none today, but the ring state is shared per thread).
    use std::sync::Mutex;
    static FLIGHT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn ring_wraps_and_keeps_the_newest_records() {
        let _g = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cap = capacity();
        let mut ring = FlightRing::default();
        let n = (cap + 10) as u64;
        for i in 0..n {
            ring.push(FlightRecord {
                ts_us: i,
                kind: FlightKind::Iter { iteration: i, residual: 1.0 },
            });
        }
        let tail = ring.tail();
        assert_eq!(tail.len(), cap);
        assert_eq!(ring.total(), n);
        // Oldest retained record is exactly total - capacity.
        assert_eq!(tail.first().unwrap().ts_us, n - cap as u64);
        assert_eq!(tail.last().unwrap().ts_us, n - 1);
        // Strictly chronological.
        assert!(tail.windows(2).all(|w| w[0].ts_us < w[1].ts_us));
    }

    #[test]
    fn disabled_records_nothing_and_enabled_records_in_order() {
        let _g = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        set_enabled(false);
        record(FlightKind::Iter { iteration: 1, residual: 0.5 });
        assert!(local_tail().0.is_empty(), "disabled recorder must drop events");
        set_enabled(true);
        record(FlightKind::Comm { op: "send", peer: 1, bytes: 8, tag: 7 });
        record(FlightKind::Verdict { verdict: "diverged", iteration: 3 });
        let (tail, total) = local_tail();
        assert_eq!(total, 2);
        assert!(matches!(tail[0].kind, FlightKind::Comm { op: "send", .. }));
        assert!(matches!(tail[1].kind, FlightKind::Verdict { .. }));
        set_enabled(true);
        crate::reset();
    }

    #[test]
    fn records_serialize_as_json_objects() {
        let recs = [
            FlightRecord { ts_us: 1, kind: FlightKind::Comm { op: "recv", peer: 2, bytes: 8, tag: 7001 } },
            FlightRecord { ts_us: 2, kind: FlightKind::Iter { iteration: 4, residual: f64::NAN } },
            FlightRecord { ts_us: 3, kind: FlightKind::Fault { rule: 0, op: "allreduce", kind: "corrupt" } },
            FlightRecord { ts_us: 4, kind: FlightKind::Attempt { slot: 1, attempt: 2, phase: "start" } },
        ];
        let json = tail_json(&recs);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"type\":\"comm\""));
        assert!(json.contains("\"residual\":null"), "NaN must serialize as null: {json}");
        assert!(json.contains("\"rule\":0"));
        assert!(json.contains("\"phase\":\"start\""));
        let (mut braces, mut brackets) = (0i64, 0i64);
        for c in json.chars() {
            match c {
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!((braces, brackets), (0, 0));
    }
}
