//! The traced run's time ledger.
//!
//! Spans are timed from the benchmark's own code around calls into the
//! program's public functions; the program's telemetry recorder is not
//! used. A span's self time is its duration minus the spans nested in
//! it, and a layer's self time is the sum over the spans named
//! `<layer>.<what>`. Whatever part of the traced end-to-end interval no
//! span covers is the unattributed remainder. A remainder below zero
//! means spans overlapped or were counted twice: [`Ledger::close`]
//! reports it as an error rather than clamping it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Sum of the span's durations, nanoseconds.
    pub total_ns: f64,
    /// Sum of the span's self times, nanoseconds.
    pub self_ns: f64,
    /// Number of times the span was recorded.
    pub count: u64,
}

/// A recorder of nested spans. When disabled it runs the same calls
/// without reading the clock, which is how the traced run measures its
/// own overhead.
#[derive(Debug, Default)]
pub struct Ledger {
    enabled: bool,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<f64>,
    spans: BTreeMap<String, SpanTotal>,
    /// A span whose nested spans outlasted it, if any.
    overlap: Option<String>,
}

/// The closed ledger of one traced interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Closure {
    /// The traced end-to-end time, nanoseconds.
    pub e2e_ns: f64,
    /// Self time per layer, nanoseconds.
    pub layers: BTreeMap<String, f64>,
    /// The part of `e2e_ns` no span covers, nanoseconds (never < 0).
    pub unattributed_ns: f64,
}

impl Ledger {
    /// A ledger that records spans.
    pub fn enabled() -> Ledger {
        Ledger {
            enabled: true,
            ..Ledger::default()
        }
    }

    /// A ledger that runs the same calls and records nothing.
    pub fn disabled() -> Ledger {
        Ledger::default()
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Time `f` as span `name`; spans opened inside `f` nest in it.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        self.open.push(0.0);
        let start = Instant::now();
        let out = f(self);
        let total_ns = start.elapsed().as_nanos() as f64;
        let child_ns = self.open.pop().expect("span stack balanced by this call");
        self.add(name, total_ns, child_ns);
        out
    }

    /// Record an interval measured inside the open span by other means
    /// (a pass's own timer, the instrumented device) as a child of it.
    /// Outside any span it is ignored.
    pub fn child(&mut self, name: &str, ns: f64) {
        if self.enabled && !self.open.is_empty() {
            self.add(name, ns, 0.0);
        }
    }

    fn add(&mut self, name: &str, total_ns: f64, child_ns: f64) {
        if child_ns > total_ns && self.overlap.is_none() {
            self.overlap = Some(format!(
                "span '{name}' lasted {total_ns} ns but its children {child_ns} ns"
            ));
        }
        if let Some(parent) = self.open.last_mut() {
            *parent += total_ns;
        }
        let entry = self.spans.entry(name.to_string()).or_default();
        entry.total_ns += total_ns;
        entry.self_ns += total_ns - child_ns;
        entry.count += 1;
    }

    /// Totals of one span name (zero if it never ran).
    pub fn get(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Close the ledger against the end-to-end time of the interval
    /// every span ran in.
    ///
    /// # Errors
    /// A span left open, a span shorter than its children, or spans
    /// that add up to more than `e2e_ns` (a negative remainder).
    pub fn close(&self, e2e_ns: f64) -> Result<Closure, String> {
        if !self.open.is_empty() {
            return Err(format!("{} span(s) still open", self.open.len()));
        }
        if let Some(overlap) = &self.overlap {
            return Err(overlap.clone());
        }
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for (name, total) in &self.spans {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer.to_string()).or_default() += total.self_ns;
        }
        let attributed: f64 = layers.values().sum();
        let unattributed_ns = e2e_ns - attributed;
        if unattributed_ns < 0.0 {
            return Err(format!(
                "negative unattributed remainder: layers add up to {attributed} ns \
                 but the traced interval lasted {e2e_ns} ns"
            ));
        }
        Ok(Closure {
            e2e_ns,
            layers,
            unattributed_ns,
        })
    }
}

impl Closure {
    /// Self time of `layer` in milliseconds (zero if it never ran).
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0) / 1e6
    }

    /// Human-readable ledger: one line per layer, then the remainder
    /// and the end-to-end total they add up to.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("traced ledger of {workload}:\n");
        for (layer, ns) in &self.layers {
            out.push_str(&format!(
                "  {layer:<12} {:>12.3} ms  {:>5.1}%\n",
                ns / 1e6,
                100.0 * ns / self.e2e_ns
            ));
        }
        out.push_str(&format!(
            "  {:<12} {:>12.3} ms  {:>5.1}%\n  {:<12} {:>12.3} ms\n",
            "unattributed",
            self.unattributed_ns / 1e6,
            100.0 * self.unattributed_ns / self.e2e_ns,
            "end-to-end",
            self.e2e_ns / 1e6
        ));
        out
    }
}

/// The traced pass of a workload and the same pass untraced.
pub struct Passes<T> {
    /// The ledger of the traced pass.
    pub ledger: Ledger,
    /// What the traced pass returned.
    pub traced: T,
    /// Wall time of the traced pass, nanoseconds.
    pub traced_ns: f64,
    /// What the untraced pass returned.
    pub untraced: T,
    /// Wall time of the untraced pass, nanoseconds.
    pub untraced_ns: f64,
}

/// Run `pass` three times: once untraced to warm caches and the
/// allocator, then traced, then untraced again for the overhead
/// comparison.
///
/// # Errors
/// The first error of any pass.
pub fn run_passes<T>(
    mut pass: impl FnMut(&mut Ledger) -> Result<T, String>,
) -> Result<Passes<T>, String> {
    pass(&mut Ledger::disabled())?;
    let mut ledger = Ledger::enabled();
    let t = Instant::now();
    let traced = pass(&mut ledger)?;
    let traced_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let untraced = pass(&mut Ledger::disabled())?;
    let untraced_ns = t.elapsed().as_nanos() as f64;
    Ok(Passes {
        ledger,
        traced,
        traced_ns,
        untraced,
        untraced_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_plus_remainder_add_up_to_the_interval() {
        let mut l = Ledger::enabled();
        let start = Instant::now();
        l.span("core.pipeline", |l| {
            busy(Duration::from_millis(2));
            l.span("core.pass", |_| busy(Duration::from_millis(3)));
        });
        busy(Duration::from_millis(1)); // glue no span covers
        l.span("engine.vm", |l| {
            busy(Duration::from_millis(2));
            l.child("camsim.search", 1.0e6);
        });
        let c = l.close(start.elapsed().as_nanos() as f64).unwrap();
        let sum: f64 = c.layers.values().sum::<f64>() + c.unattributed_ns;
        assert!((sum - c.e2e_ns).abs() < 1e-6 * c.e2e_ns, "{c:?}");
        assert!(c.unattributed_ns >= 1.0e6, "the 1 ms of glue: {c:?}");
        assert_eq!(c.layers.len(), 3);
        assert!(c.layer_ms("core") >= 5.0);
        assert_eq!(c.layer_ms("camsim"), 1.0);
        // The pipeline's self time excludes its nested pass.
        let p = l.get("core.pipeline");
        assert!((p.total_ns - p.self_ns - l.get("core.pass").total_ns).abs() < 1.0);
    }

    #[test]
    fn a_negative_remainder_is_an_error_not_clamped() {
        let mut l = Ledger::enabled();
        l.span("hal.execute", |_| busy(Duration::from_millis(2)));
        let spans = l.get("hal.execute").total_ns;
        let e = l.close(spans / 2.0).unwrap_err();
        assert!(e.contains("negative unattributed"), "{e}");
    }

    #[test]
    fn a_child_longer_than_its_span_is_an_error() {
        let mut l = Ledger::enabled();
        l.span("engine.vm", |l| l.child("camsim.program", 1e12));
        let e = l.close(1e13).unwrap_err();
        assert!(e.contains("its children"), "{e}");
    }

    #[test]
    fn a_disabled_ledger_runs_the_calls_and_records_nothing() {
        let mut l = Ledger::disabled();
        let v = l.span("core.place", |l| {
            l.child("core.x", 5.0);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(l.get("core.place"), SpanTotal::default());
        assert!(l.close(0.0).unwrap().layers.is_empty());
    }
}
