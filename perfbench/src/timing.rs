//! The bench-side timing [`Transport`] decorator.
//!
//! [`TimedTransport`] wraps any transport (`InProcess` or `WorkerProcess`)
//! and records a wall-clock [`Span`] around every `exchange` and
//! `exchange_concat` call. It forwards `name` and `needs_bytes` unchanged,
//! so the engines take exactly the same code paths as over the bare inner
//! transport: logits and `RunReport` (including `wire_bytes`) are
//! bit-identical with and without the wrapper (`tests/transparency.rs`).
//!
//! The spans of one run split its wall time into time inside the exchange
//! and engine self time; the gaps between consecutive spans are the self
//! time of each superstep (Pregel) or round (MapReduce). See
//! [`split_run`].

use inferturbo::cluster::{ConcatExchange, ConcatOut, Exchange, ExchangeOut, Transport};
use inferturbo::common::Result;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed exchange call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: Instant,
    pub end: Instant,
}

/// Records a [`Span`] around every exchange of the inner transport.
#[derive(Debug)]
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    spans: Mutex<Vec<Span>>,
}

impl TimedTransport {
    pub fn wrap(inner: Arc<dyn Transport>) -> Arc<TimedTransport> {
        Arc::new(TimedTransport {
            inner,
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Remove and return the spans recorded since the last call, in call
    /// order.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn timed<R>(&self, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .push(Span { start, end });
        out
    }
}

impl Transport for TimedTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_bytes(&self) -> bool {
        self.inner.needs_bytes()
    }

    fn exchange(&self, ex: Exchange<'_>) -> Result<ExchangeOut> {
        self.timed(|| self.inner.exchange(ex))
    }

    fn exchange_concat(&self, ex: ConcatExchange<'_>) -> Result<ConcatOut> {
        self.timed(|| self.inner.exchange_concat(ex))
    }
}

/// One run's wall time split at its exchange calls.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSplit {
    /// Wall time of the whole run.
    pub run_s: f64,
    /// Time inside exchange calls.
    pub exchange_s: f64,
    /// Engine self time before the first exchange, between consecutive
    /// exchanges and after the last one: `exchanges + 1` entries.
    pub steps_s: Vec<f64>,
}

impl RunSplit {
    pub fn self_s(&self) -> f64 {
        self.steps_s.iter().sum()
    }
}

/// Split the run `[start, end]` at its exchange `spans` (in call order).
pub fn split_run(start: Instant, end: Instant, spans: &[Span]) -> RunSplit {
    let mut steps_s = Vec::with_capacity(spans.len() + 1);
    let mut cursor = start;
    let mut exchange = Duration::ZERO;
    for s in spans {
        steps_s.push(s.start.saturating_duration_since(cursor).as_secs_f64());
        exchange += s.end.saturating_duration_since(s.start);
        cursor = s.end;
    }
    steps_s.push(end.saturating_duration_since(cursor).as_secs_f64());
    RunSplit {
        run_s: end.duration_since(start).as_secs_f64(),
        exchange_s: exchange.as_secs_f64(),
        steps_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_accounts_for_every_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let spans = [
            Span {
                start: at(10),
                end: at(15),
            },
            Span {
                start: at(40),
                end: at(50),
            },
        ];
        let s = split_run(t0, at(70), &spans);
        assert_eq!(s.steps_s.len(), 3);
        assert!((s.exchange_s - 0.015).abs() < 1e-9);
        assert!((s.self_s() - 0.055).abs() < 1e-9);
        assert!((s.run_s - (s.self_s() + s.exchange_s)).abs() < 1e-9);
        assert!((s.steps_s[1] - 0.025).abs() < 1e-9);
    }
}
