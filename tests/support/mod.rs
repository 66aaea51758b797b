//! Checks shared by the golden and fault-matrix tests.
//!
//! Two serve the exact-clock re-pin (DESIGN.md §12): the f64-microsecond
//! clock's captures moved to whole nanoseconds, and these checks show
//! nothing but rounding moved with them. The third is the trace→counter
//! fold (DESIGN.md §9): a complete trace replays into its run's counters.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use fast_rfid_polling::hash::Fnv64;
use fast_rfid_polling::system::event::EventLog;
use fast_rfid_polling::system::json::{Json, ToJson};
use fast_rfid_polling::system::Counters;

/// Asserts that `log` recorded the run (it is enabled) and folds, through [`Counters::from_events`], into exactly `counters`.
/// `tag_listen_us` is a time integral, not an event, so it is left out.
/// A counter written anywhere but `SimContext::emit` fails here.
pub fn assert_trace_folds_into(label: &str, log: &EventLog, counters: &Counters) {
    assert!(log.is_enabled(), "{label}: the trace is off");
    assert_eq!(
        Counters::from_events(log.events()),
        Counters {
            tag_listen_us: 0.0,
            ..*counters
        },
        "{label}: the trace does not fold into the run's counters"
    );
}

/// FNV-1a of the trace's JSONL with every `at` stripped: the event
/// sequence alone, whatever the clock read when each was recorded.
pub fn untimed_digest(log: &EventLog) -> u64 {
    let mut hash = Fnv64::new();
    let mut line = String::new();
    for e in log.events() {
        line.clear();
        e.event.write_json(&mut line);
        line.push('\n');
        hash.write(line.as_bytes());
    }
    hash.finish()
}

/// Asserts that `old` and `new` are the same JSON document up to number
/// values, and that every number in `new` is within `rel` (relative) of
/// the one at the same place in `old`.
pub fn assert_numbers_within(case: &str, old: &str, new: &str, rel: f64) {
    fn walk(case: &str, path: &str, old: &Json, new: &Json, rel: f64) {
        match (old, new) {
            (Json::Obj(a), Json::Obj(b)) => {
                let keys =
                    |o: &[(String, Json)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
                assert_eq!(keys(a), keys(b), "{case}: keys at {path}");
                for ((k, x), (_, y)) in a.iter().zip(b) {
                    walk(case, &format!("{path}.{k}"), x, y, rel);
                }
            }
            (Json::Arr(a), Json::Arr(b)) => {
                assert_eq!(a.len(), b.len(), "{case}: length at {path}");
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    walk(case, &format!("{path}[{i}]"), x, y, rel);
                }
            }
            (x, y) => match (x.as_f64(), y.as_f64()) {
                (Ok(x), Ok(y)) => assert!(
                    (x - y).abs() <= rel * x.abs(),
                    "{case}: {path} moved from {x} to {y}, beyond {rel} relative"
                ),
                _ => assert_eq!(x, y, "{case}: {path}"),
            },
        }
    }
    let parse = |text: &str| Json::parse(text).unwrap_or_else(|e| panic!("{case}: {e}"));
    walk(case, "$", &parse(old), &parse(new), rel);
}
