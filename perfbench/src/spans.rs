//! The benchmark's own spans: one around each public call it makes into
//! the program, timed from outside. Durations are always measured (the
//! end-to-end metrics are built from them); spans are only *kept* while
//! recording is on, in memory, and written out once at the end of a run.

use std::time::Instant;

/// One completed (or still open) benchmark span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one campaign (`None` above campaign level).
    pub campaign: Option<usize>,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Microseconds since the log's epoch.
    pub start_us: u64,
    pub end_us: u64,
}

/// Handle of an entered span; pass it back to [`SpanLog::exit`].
#[must_use]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// In-memory span log with a strict enter/exit stack.
pub struct SpanLog {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { epoch: Instant::now(), recording: false, spans: Vec::new(), stack: Vec::new() }
    }
}

impl SpanLog {
    /// Keep spans entered from now on (or stop keeping them).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn enter(&mut self, name: &'static str, campaign: Option<usize>) -> Open {
        let start = Instant::now();
        let idx = self.recording.then(|| {
            let start_us = start.duration_since(self.epoch).as_micros() as u64;
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, campaign, parent, start_us, end_us: start_us });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Close `open`, returning its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.idx {
            assert_eq!(self.stack.pop(), Some(i), "benchmark spans must nest strictly");
            self.spans[i].end_us = end.duration_since(self.epoch).as_micros() as u64;
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Chrome trace-event JSON (loadable in Perfetto): one complete event
    /// per span, with its id, parent and campaign in `args`.
    pub fn render_chrome(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                     \"args\":{{\"id\":{i},\"parent\":{},\"campaign\":{}}}}}",
                    s.name,
                    s.start_us,
                    s.end_us - s.start_us,
                    opt(s.parent),
                    opt(s.campaign)
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_campaign_only_while_recording() {
        let mut log = SpanLog::default();
        let quiet = log.enter("pass", None);
        assert!(log.exit(quiet) >= 0.0);
        assert!(log.spans().is_empty());
        log.set_recording(true);
        let pass = log.enter("pass", None);
        let c = log.enter("campaign", Some(3));
        let g = log.enter("golden", Some(3));
        log.exit(g);
        log.exit(c);
        log.exit(pass);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(1)));
        assert_eq!((s[1].campaign, s[2].campaign), (Some(3), Some(3)));
        assert!(s.iter().all(|s| s.end_us >= s.start_us));
        assert!(log.render_chrome().contains("\"parent\":1,\"campaign\":3"));
    }
}
