//! The benchmark's own spans, recorded around calls into each crate's
//! public functions, plus forwarding wrappers that time the kernels the
//! native Krylov path runs.
//!
//! Ranks are threads, so each rank records into a thread-local buffer;
//! nothing is written while ops run. The runner collects every rank's
//! spans when the run ends. Recording is armed per op: untraced ops pay
//! one thread-local flag check per span site and take no kernel wrapper.

use std::cell::RefCell;
use std::time::Instant;

use rcomm::Communicator;
use rkrylov::{KspError, LinearOperator, Preconditioner};
use rsparse::{BlockRowPartition, CsrMatrix, DistVector};

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub rank: usize,
    pub op: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    rank: usize,
    epoch: Instant,
    op: u64,
    armed: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install this rank thread's recorder.
pub fn begin(rank: usize, epoch: Instant) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            epoch,
            op: 0,
            armed: false,
            open: Vec::new(),
            spans: Vec::new(),
        })
    });
}

/// Tag the spans that follow with `op`, and arm or disarm recording.
pub fn set_op(op: u64, armed: bool) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
            rec.armed = armed;
        }
    });
}

/// Take every span this rank recorded.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Run `f`, returning its result and wall seconds. When recording is
/// armed the call also becomes a span, child of the innermost open one.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().filter(|rec| rec.armed)?;
        let id = rec.spans.len();
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            rank: rec.rank,
            op: rec.op,
            id,
            parent: rec.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    });
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let Some(id) = opened {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder outlives its open spans");
            rec.spans[id].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
    (out, secs)
}

/// Forwards every [`LinearOperator`] method to `inner`, timing `apply`
/// and `apply_multi`. The forwarded diagonal queries make the
/// preconditioner built through it identical to one built on `inner`.
pub struct TracedOperator<'a> {
    pub inner: &'a dyn LinearOperator,
}

impl LinearOperator for TracedOperator<'_> {
    fn partition(&self) -> &BlockRowPartition {
        self.inner.partition()
    }

    fn apply(
        &self,
        comm: &Communicator,
        x: &DistVector,
        y: &mut DistVector,
    ) -> Result<(), KspError> {
        timed("rsparse.spmv", || self.inner.apply(comm, x, y)).0
    }

    fn diagonal_local(&self) -> Option<Vec<f64>> {
        self.inner.diagonal_local()
    }

    fn diagonal_block(&self) -> Option<CsrMatrix> {
        self.inner.diagonal_block()
    }

    fn apply_multi(
        &self,
        comm: &Communicator,
        xs: &[f64],
        ys: &mut [f64],
        k: usize,
    ) -> Result<(), KspError> {
        timed("rsparse.spmv_multi", || {
            self.inner.apply_multi(comm, xs, ys, k)
        })
        .0
    }

    fn global_order(&self) -> usize {
        self.inner.global_order()
    }
}

/// Forwards a [`Preconditioner`], timing `apply`.
pub struct TracedPc<'a> {
    pub inner: &'a dyn Preconditioner,
}

impl Preconditioner for TracedPc<'_> {
    fn apply(
        &self,
        comm: &Communicator,
        r: &DistVector,
        z: &mut DistVector,
    ) -> Result<(), KspError> {
        timed("rkrylov.pc_apply", || self.inner.apply(comm, r, z)).0
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
