//! Spans recorded around calls into the program's layers.
//!
//! The benchmark times each call it makes into a layer's public API
//! and files the duration under that layer. Spans are leaves and never
//! overlap (one client thread makes every call in turn), so a layer's
//! self time is the sum of its spans and whatever the traced wall
//! holds beyond all spans is the benchmark's own, unattributed work.

use std::time::Instant;

/// The workspace crates the benchmark calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Core,
    Topology,
    /// Engine, observer, snapshot and runner.
    Netsim,
    Serve,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Core, Layer::Topology, Layer::Netsim, Layer::Serve];

    /// The per-layer metric carrying this layer's self time.
    pub fn self_metric(self) -> &'static str {
        match self {
            Layer::Core => "trace.self.core_s",
            Layer::Topology => "trace.self.topology_s",
            Layer::Netsim => "trace.self.netsim_s",
            Layer::Serve => "trace.self.serve_s",
        }
    }
}

#[derive(Debug)]
struct Span {
    layer: Layer,
    name: &'static str,
    secs: f64,
}

/// Spans of one traced run, kept in memory until the report.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    start: Instant,
    excluded: f64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            on: true,
            start: Instant::now(),
            excluded: 0.0,
            spans: Vec::new(),
        }
    }

    /// Spans that record nothing, for untraced runs sharing code with
    /// traced ones.
    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::new()
        }
    }

    /// Runs `f` as one span of `layer` named `name` (by convention the
    /// per-layer metric the span feeds).
    pub fn time<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.spans.push(Span {
            layer,
            name,
            secs: t0.elapsed().as_secs_f64(),
        });
        out
    }

    /// Runs `f` outside the traced wall: the untraced passes the
    /// tracing overhead is measured against.
    pub fn untraced<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.excluded += t0.elapsed().as_secs_f64();
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs)
            .collect()
    }

    /// Sum of the spans filed under `layer`.
    pub fn self_time(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.secs)
            .sum()
    }

    /// Wall time since the spans were opened, less the untraced work.
    pub fn wall(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.excluded
    }
}
