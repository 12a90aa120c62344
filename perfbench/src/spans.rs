//! An in-memory span recorder for the traced run. Spans are taken from
//! the harness side of each layer call (name, start, end, parent, and a
//! request id shared by every span of one request), kept in memory, and
//! written out once the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU time the whole process used during the span (0 for spans
    /// measured elsewhere).
    pub cpu_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `request`; the
    /// innermost open span is its parent.
    pub fn span<R>(&self, name: &str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                request,
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                cpu_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let cpu = process_cpu_ns();
        let out = f();
        let cpu = process_cpu_ns().saturating_sub(cpu);
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        spans[id].cpu_ns = cpu;
        out
    }

    /// Adds a root span measured elsewhere (e.g. by another thread), with
    /// times given as offsets from `base`, which must not precede the
    /// recorder's origin.
    pub fn record(&self, name: &str, request: u64, base: Instant, start_ns: u64, end_ns: u64) {
        let shift = base.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            parent: None,
            request,
            name: name.to_string(),
            start_ns: shift + start_ns,
            end_ns: shift + end_ns,
            cpu_ns: 0,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// NDJSON, one span per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns, s.cpu_ns
            );
        }
        out
    }
}

/// Each span's own share of `value`: its value minus its children's
/// (children are taken as non-overlapping, as they are on one thread).
fn self_of(spans: &[Span], value: impl Fn(&Span) -> u64) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += value(s);
        }
    }
    spans
        .iter()
        .map(|s| value(s).saturating_sub(covered[s.id]))
        .collect()
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    self_of(spans, Span::duration_ns)
}

/// Each span's self CPU time.
pub fn self_cpu(spans: &[Span]) -> Vec<u64> {
    self_of(spans, |s| s.cpu_ns)
}

/// Self times (or self CPU times) grouped by span name, in seconds, in
/// recording order.
pub fn self_seconds_by_name(spans: &[Span], selfs: &[u64]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        out.entry(s.name.clone()).or_default().push(*t as f64 / 1e9);
    }
    out
}

/// `clockid_t` of the whole process's CPU clock, from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` (64-bit Linux layout).
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU nanoseconds (user + system, all threads) this process has used.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable, properly aligned `timespec` that
    // outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_request_and_subtract_children() {
        let rec = Recorder::new();
        rec.span("outer", 7, || {
            rec.span("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                // Some CPU work, so the inner span's CPU time is not 0.
                let start = std::time::Instant::now();
                while start.elapsed() < std::time::Duration::from_millis(2) {
                    std::hint::black_box(0);
                }
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert!(selfs[1] >= 5_000_000);
        let cpu = self_cpu(&spans);
        assert!(spans[1].cpu_ns > 0);
        assert_eq!(cpu[0] + spans[1].cpu_ns, spans[0].cpu_ns);
        assert_eq!(rec.to_ndjson().lines().count(), 2);
    }
}
