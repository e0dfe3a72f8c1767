//! In-memory span and counter recorder for the traced replay run, plus the
//! process-memory probes both runs use.
//!
//! Spans carry a name, start, end and parent; counters are named sums. A
//! span opened with memory sampling also records the resident-set peak
//! (`VmHWM`) reached while it was open: opening it folds the current peak
//! into every open ancestor and resets the peak through
//! `/proc/self/clear_refs`, so nested sampled spans do not erase their
//! parents' peaks. Everything stays in memory until the run writes it out.

use std::collections::BTreeMap;
use std::fs;
use std::time::Instant;

use serde::Serialize;

/// Reads one `kB` field (`VmRSS`, `VmHWM`, ...) of `/proc/self/status`.
pub fn status_kb(field: &str) -> Result<u64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .ok_or_else(|| format!("/proc/self/status has no {field} field"))
}

/// Resets the process's peak resident set (`VmHWM`) to its current size.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Resident-set figures of one sampled span, in kB.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SpanMem {
    pub rss_start_kb: u64,
    pub rss_end_kb: u64,
    pub peak_kb: u64,
}

/// One recorded span; times are seconds since the recorder was created.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    pub mem: Option<SpanMem>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, name: &'static str) {
        self.open_span(name, None);
    }

    /// Opens a span that samples the resident-set peak while it is open.
    pub fn enter_mem(&mut self, name: &'static str) -> Result<(), String> {
        self.fold_peak(status_kb("VmHWM")?);
        reset_peak_rss()?;
        let rss = status_kb("VmRSS")?;
        self.open_span(
            name,
            Some(SpanMem {
                rss_start_kb: rss,
                rss_end_kb: rss,
                peak_kb: rss,
            }),
        );
        Ok(())
    }

    fn open_span(&mut self, name: &'static str, mem: Option<SpanMem>) {
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
            mem,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> Result<f64, String> {
        let end_s = self.epoch.elapsed().as_secs_f64();
        let i = self.open.pop().expect("exit() pairs with an enter()");
        self.spans[i].end_s = end_s;
        if self.spans[i].mem.is_some() {
            let hwm = status_kb("VmHWM")?;
            let rss = status_kb("VmRSS")?;
            let mem = self.spans[i].mem.as_mut().expect("checked above");
            mem.peak_kb = mem.peak_kb.max(hwm);
            mem.rss_end_kb = rss;
            self.fold_peak(hwm);
        }
        Ok(self.spans[i].secs())
    }

    fn fold_peak(&mut self, hwm_kb: u64) {
        for &i in &self.open {
            if let Some(mem) = self.spans[i].mem.as_mut() {
                mem.peak_kb = mem.peak_kb.max(hwm_kb);
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Result<T, String> {
        self.enter(name);
        let out = f();
        self.exit()?;
        Ok(out)
    }

    /// Runs `f` inside a span that samples the resident-set peak.
    pub fn span_mem<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Result<T, String> {
        self.enter_mem(name)?;
        let out = f();
        self.exit()?;
        Ok(out)
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as u64;
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Largest peak resident growth above the span's start, in MB, over
    /// the sampled spans named `name`.
    pub fn peak_mb(&self, name: &str) -> f64 {
        self.named(name)
            .filter_map(|s| s.mem)
            .map(|m| m.peak_kb.saturating_sub(m.rss_start_kb) as f64 / 1024.0)
            .fold(0.0, f64::max)
    }

    /// Largest resident growth that outlived the span, in MB, over the
    /// sampled spans named `name`.
    pub fn retained_mb(&self, name: &str) -> f64 {
        self.named(name)
            .filter_map(|s| s.mem)
            .map(|m| m.rss_end_kb.saturating_sub(m.rss_start_kb) as f64 / 1024.0)
            .fold(0.0, f64::max)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_peaks() {
        let mut tr = Tracer::new();
        tr.enter_mem("outer").unwrap();
        let inner = tr
            .span_mem("inner", || std::hint::black_box(vec![1u8; 64 << 20]).len())
            .unwrap();
        tr.add("bytes", inner);
        tr.exit().unwrap();
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        // The inner allocation shows in both the inner and the outer peak.
        assert!(tr.peak_mb("inner") >= 32.0, "{}", tr.peak_mb("inner"));
        assert!(tr.peak_mb("outer") >= 32.0, "{}", tr.peak_mb("outer"));
        assert_eq!(tr.count("bytes"), 64 << 20);
        assert!(tr.busy_s("outer") >= tr.busy_s("inner"));
    }
}
