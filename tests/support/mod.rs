//! Checks shared by the golden tests for the exact-clock re-pin (DESIGN.md
//! §12): the f64-microsecond clock's captures moved to whole nanoseconds,
//! and these two checks show nothing but rounding moved with them.

use fast_rfid_polling::hash::Fnv64;
use fast_rfid_polling::system::event::EventLog;
use fast_rfid_polling::system::json::{Json, ToJson};

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
