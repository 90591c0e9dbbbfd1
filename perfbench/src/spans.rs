//! Self times of the engine's wall-lane spans, read back from
//! [`df_sim::Tracer::chrome_trace_json`].
//!
//! The push executor records, on one lane per thread (`exec.push` for the
//! caller, `exec.push.p<N>` for each fabric-producer thread), nested spans:
//! operator spans (`filter`, `aggregate`, `hash-join`, ...) open for the
//! whole life of their pipeline, a source span (`values`, `storage-scan`,
//! `stream`) wraps the batch loop, and one `morsel` span per operator per
//! batch wraps that operator's `push`. A span's self time is its duration
//! minus the time its child spans cover; each self time is charged to one
//! layer [`category`].
//!
//! A `morsel` carries no operator name, so it is charged to the operator it
//! belongs to by position: a chain of nested morsels under a source span
//! (or under `join-probe`) belongs to the operators above that source,
//! innermost first, skipping joins (a join probes inside `join-probe`
//! without a morsel). Under an operator span, a morsel belongs to that
//! operator while its pipeline streams, and to the next operator out once
//! an inner span has closed (the finish cascade). One case stays
//! ambiguous: after a pipeline fed by a channel (no inner span ever opens)
//! starts its finish cascade, the next operator's morsels are charged to
//! the finishing one. Those morsels carry only the finished operator's
//! output, which is small for the aggregations that end such pipelines.
//!
//! The executor opens no span around a channel receive, so the time a
//! consumer blocks on its input lands in whichever span is open. Where
//! that span is a channel-fed pipeline's head operator (no inner span ever
//! closed under it) or the root `query` span, its self time is receive
//! wait plus edge decode plus the operator's finish, and is charged to
//! `exec.input_wait`. `join-build` and `join-probe` also drain channels;
//! their self time includes that wait.

use std::collections::BTreeMap;

/// Span self time and counts, summed over the executor's wall lanes.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Self nanoseconds per category (see [`category`]).
    pub self_ns: BTreeMap<String, u64>,
    /// Number of `credit-wait` spans.
    pub credit_waits: u64,
    /// Busy nanoseconds (top-level span time) of the producer lanes: work
    /// that ran on other threads than the caller's.
    pub producer_busy_ns: u64,
}

impl SpanTotals {
    /// Self nanoseconds charged to `category`.
    pub fn get(&self, category: &str) -> u64 {
        self.self_ns.get(category).copied().unwrap_or(0)
    }

    /// Self nanoseconds charged to a layer (every category not prefixed
    /// `unattributed:`).
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns
            .iter()
            .filter(|(k, _)| !k.starts_with("unattributed:"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Add another operation's totals into this one.
    pub fn add(&mut self, other: &SpanTotals) {
        for (k, v) in &other.self_ns {
            *self.self_ns.entry(k.clone()).or_default() += v;
        }
        self.credit_waits += other.credit_waits;
        self.producer_busy_ns += other.producer_busy_ns;
    }
}

/// The layer a span label belongs to. Labels that no layer owns
/// (`fabric-edge`, `exchange-producer`, `values`, unplaced morsels) are
/// charged to `unattributed:<label>`.
pub fn category(label: &str) -> String {
    let base = label.split(" [").next().unwrap_or(label);
    let layer = match base {
        "storage-scan" => "storage.scan",
        "filter" => "ops.filter",
        "aggregate" => "ops.aggregate",
        "hash-join" | "join-probe" => "ops.hash_join",
        "join-build" => "ops.join_build",
        "project" | "sort" | "topk" | "limit" | "window-agg" => "ops.other",
        "credit-wait" => "exec.credit_wait",
        "query" => "exec.input_wait",
        other => return format!("unattributed:{other}"),
    };
    layer.to_string()
}

fn is_operator(label: &str) -> bool {
    matches!(
        label,
        "filter" | "project" | "aggregate" | "sort" | "topk" | "limit" | "window-agg" | "hash-join"
    )
}

fn is_source(label: &str) -> bool {
    matches!(label, "values" | "storage-scan" | "stream")
}

struct Frame {
    label: String,
    /// Category this frame's self time is charged to.
    category: String,
    start: u64,
    children_ns: u64,
    /// A non-morsel child span has closed (marks the finish cascade).
    inner_closed: bool,
}

/// The operator a `morsel` about to open on top of `stack` belongs to.
fn morsel_owner(stack: &[Frame]) -> Option<String> {
    let depth = stack
        .iter()
        .rev()
        .take_while(|f| f.label == "morsel")
        .count();
    let anchor = stack.len().checked_sub(depth + 1)?;
    let a = &stack[anchor];
    let first = if is_source(&a.label) || a.label == "join-probe" {
        anchor.checked_sub(1)?
    } else if is_operator(&a.label) {
        if a.inner_closed {
            anchor.checked_sub(1)?
        } else {
            anchor
        }
    } else {
        return None;
    };
    let mut ops = Vec::new();
    for f in stack[..=first].iter().rev() {
        if f.label == "join-probe" {
            continue;
        }
        if !is_operator(&f.label) {
            break;
        }
        if f.label != "hash-join" {
            ops.push(f.label.clone());
        }
    }
    ops.get(depth).cloned()
}

/// Pull the string value of `"key":"..."` out of one trace-event line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&rest[..i]),
            _ => i += 1,
        }
    }
    None
}

/// Pull the bare (numeric) value of `"key":...` out of one line.
fn num_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Microseconds with a 3-digit fraction (`12.345`) to nanoseconds.
fn ts_ns(text: &str) -> Option<u64> {
    let (whole, frac) = text.split_once('.').unwrap_or((text, "0"));
    Some(whole.parse::<u64>().ok()? * 1_000 + frac.parse::<u64>().ok()?)
}

/// Self times per category over every `exec.push*` wall lane of a Chrome
/// trace. Other lanes (the storage server's own lane, sim lanes) cover the
/// same instants as the executor's spans and are skipped so nothing is
/// counted twice. Malformed lines are ignored.
pub fn summarize(chrome_json: &str) -> SpanTotals {
    let mut lanes: BTreeMap<u64, String> = BTreeMap::new();
    let mut events: BTreeMap<u64, Vec<(char, u64, String)>> = BTreeMap::new();
    for line in chrome_json.lines() {
        let line = line.trim().trim_end_matches(',');
        if num_field(line, "pid") != Some("2") {
            continue;
        }
        let Some(tid) = num_field(line, "tid").and_then(|t| t.parse::<u64>().ok()) else {
            continue;
        };
        match str_field(line, "ph") {
            Some("M") => {
                if let Some(at) = line.find("\"args\":") {
                    if let Some(name) = str_field(&line[at..], "name") {
                        lanes.insert(tid, name.to_string());
                    }
                }
            }
            Some(ph @ ("B" | "E")) => {
                let Some(ts) = num_field(line, "ts").and_then(ts_ns) else {
                    continue;
                };
                let name = str_field(line, "name").unwrap_or("").to_string();
                let ph = if ph == "B" { 'B' } else { 'E' };
                events.entry(tid).or_default().push((ph, ts, name));
            }
            _ => {}
        }
    }

    let mut totals = SpanTotals::default();
    for (tid, evs) in &events {
        let Some(lane) = lanes.get(tid) else { continue };
        if !lane.starts_with("exec.push") {
            continue;
        }
        let producer = lane != "exec.push";
        let mut stack: Vec<Frame> = Vec::new();
        for (ph, ts, name) in evs {
            if *ph == 'B' {
                let category = if name == "morsel" {
                    match morsel_owner(&stack) {
                        Some(op) => category(&op),
                        None => category("morsel"),
                    }
                } else {
                    category(name)
                };
                if name == "credit-wait" {
                    totals.credit_waits += 1;
                }
                stack.push(Frame {
                    label: name.clone(),
                    category,
                    start: *ts,
                    children_ns: 0,
                    inner_closed: false,
                });
                continue;
            }
            let Some(frame) = stack.pop() else { continue };
            let dur = ts.saturating_sub(frame.start);
            let category = if is_operator(&frame.label) && !frame.inner_closed {
                category("query")
            } else {
                frame.category
            };
            *totals.self_ns.entry(category).or_default() += dur.saturating_sub(frame.children_ns);
            match stack.last_mut() {
                Some(parent) => {
                    parent.children_ns += dur;
                    if frame.label != "morsel" {
                        parent.inner_closed = true;
                    }
                }
                None if producer => totals.producer_busy_ns += dur,
                None => {}
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_sim::trace::{LaneKind, Tracer};

    /// Sleep-free span layout: nesting alone decides the attribution, so
    /// the check is on which categories receive time, not how much.
    #[test]
    fn morsels_charge_the_operator_they_belong_to() {
        let t = Tracer::new();
        let root = t.lane("exec.push", LaneKind::Wall);
        let other = t.lane("storage.smart", LaneKind::Wall);
        {
            let _q = t.span(root, "query [x]");
            let _agg = t.span(root, "aggregate");
            let _filter = t.span(root, "filter");
            {
                let _src = t.span(root, "storage-scan");
                let _scan = t.span(other, "scan [t]");
                let _m0 = t.span(root, "morsel"); // filter's push
                let _m1 = t.span(root, "morsel"); // aggregate's push
            }
        }
        let totals = summarize(&t.chrome_trace_json());
        for key in [
            "ops.filter",
            "ops.aggregate",
            "storage.scan",
            "exec.input_wait",
        ] {
            assert!(totals.self_ns.contains_key(key), "{key}: {totals:?}");
        }
        assert!(!totals.self_ns.contains_key("unattributed:morsel"));
        assert!(!totals.self_ns.keys().any(|k| k.contains("scan [")));
    }

    #[test]
    fn finish_cascade_morsels_go_to_the_next_operator() {
        let t = Tracer::new();
        let lane = t.lane("exec.push.p1", LaneKind::Wall);
        {
            let _project = t.span(lane, "project");
            let _join = t.span(lane, "hash-join");
            {
                let _probe = t.span(lane, "join-probe");
                let _m = t.span(lane, "morsel"); // project's push, streaming
            }
            let _m = t.span(lane, "morsel"); // project's push, finish cascade
        }
        let totals = summarize(&t.chrome_trace_json());
        assert!(totals.self_ns.contains_key("ops.other"));
        assert!(totals.self_ns.contains_key("ops.hash_join"));
        assert!(!totals.self_ns.contains_key("unattributed:morsel"));
    }

    #[test]
    fn credit_waits_are_counted() {
        let t = Tracer::new();
        let lane = t.lane("exec.push.p3", LaneKind::Wall);
        {
            let _e = t.span(lane, "fabric-edge");
            drop(t.span(lane, "credit-wait"));
            drop(t.span(lane, "credit-wait"));
        }
        let totals = summarize(&t.chrome_trace_json());
        assert_eq!(totals.credit_waits, 2);
        assert!(totals.self_ns.contains_key("exec.credit_wait"));
    }
}
