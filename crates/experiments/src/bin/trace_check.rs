//! Validate the driver's telemetry artifacts.
//!
//! `--trace` checks a Chrome trace-event file: the JSON parses, it is the
//! object form with a `traceEvents` array, every event carries `ph`/`pid`/
//! `tid`, every `"X"` event carries finite `ts`/`dur`, and at least one
//! `"X"` event is present. `--log` checks a JSONL structured log: every
//! line parses as a JSON object with a `kind` discriminator, and the
//! leading `meta` line's `events`/`spans` totals match the body. Exits
//! non-zero with a message on the first violation — CI runs this against
//! the smoke-scale `--fig6` artifacts. A usage error exits 2.

use experiments::flags::{self, Command, Stop};
use serde::Value;

static TRACE_CHECK: Command = Command::new(
    "trace_check [--trace PATH] [--log PATH]",
    "Validate the driver's telemetry artifacts: a Chrome trace-event file\n\
     and a JSONL structured log. Exits 1 on the first violation.",
    &[&[
        ("--trace", "PATH", "check a Chrome trace-event JSON file"),
        ("--log", "PATH", "check a JSONL structured log"),
    ]],
);

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::F32(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

fn check_trace(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Value::Map(top) = v else {
        return Err(format!("{path}: top level is not a JSON object"));
    };
    let Some(Value::Seq(events)) = get(&top, "traceEvents") else {
        return Err(format!("{path}: missing traceEvents array"));
    };
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let Value::Map(e) = e else {
            return Err(format!("{path}: traceEvents[{i}] is not an object"));
        };
        let Some(Value::Str(ph)) = get(e, "ph") else {
            return Err(format!("{path}: traceEvents[{i}] has no ph"));
        };
        for key in ["pid", "tid"] {
            if get(e, key).and_then(as_f64).is_none() {
                return Err(format!("{path}: traceEvents[{i}] has no numeric {key}"));
            }
        }
        if ph == "X" {
            for key in ["ts", "dur"] {
                match get(e, key).and_then(as_f64) {
                    Some(x) if x.is_finite() => {}
                    _ => {
                        return Err(format!(
                            "{path}: traceEvents[{i}] ('X') has no finite {key}"
                        ))
                    }
                }
            }
            complete += 1;
        }
    }
    if complete == 0 {
        return Err(format!("{path}: no complete ('X') events"));
    }
    Ok(format!(
        "{path}: ok ({} events, {complete} complete)",
        events.len()
    ))
}

fn check_log(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut counts = (0u64, 0u64); // (events, spans)
    let mut meta: Option<(u64, u64)> = None;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let Value::Map(obj) = v else {
            return Err(format!("{path}:{}: line is not a JSON object", i + 1));
        };
        let Some(Value::Str(kind)) = get(&obj, "kind") else {
            return Err(format!("{path}:{}: missing kind", i + 1));
        };
        match kind.as_str() {
            "meta" => {
                if i != 0 {
                    return Err(format!("{path}:{}: meta line not first", i + 1));
                }
                let ev = get(&obj, "events").and_then(as_f64).unwrap_or(-1.0);
                let sp = get(&obj, "spans").and_then(as_f64).unwrap_or(-1.0);
                if ev < 0.0 || sp < 0.0 {
                    return Err(format!("{path}:1: meta line lacks events/spans totals"));
                }
                meta = Some((ev as u64, sp as u64));
            }
            "event" => counts.0 += 1,
            "span" => counts.1 += 1,
            "counter" | "histogram" | "gauge" => {}
            other => return Err(format!("{path}:{}: unknown kind '{other}'", i + 1)),
        }
        lines += 1;
    }
    let Some(totals) = meta else {
        return Err(format!("{path}: no meta line"));
    };
    if totals != counts {
        return Err(format!(
            "{path}: meta claims {totals:?} events/spans, body has {counts:?}"
        ));
    }
    Ok(format!(
        "{path}: ok ({lines} lines, {} events, {} spans)",
        counts.0, counts.1
    ))
}

fn main() {
    flags::exit(run(&flags::argv()))
}

fn run(argv: &[String]) -> Result<i32, Stop> {
    let p = TRACE_CHECK.parse(argv)?;
    if !p.has("--trace") && !p.has("--log") {
        return Err(Stop::Fail(
            "nothing to check (use --trace PATH and/or --log PATH)".into(),
        ));
    }
    let traces = p.all("--trace").map(|v| check_trace(&v[0]));
    for result in traces.chain(p.all("--log").map(|v| check_log(&v[0]))) {
        match result {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("trace_check: {msg}");
                return Ok(1);
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_flag() {
        let help = TRACE_CHECK.help();
        for (name, ..) in TRACE_CHECK.rows() {
            assert!(
                help.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{name} missing from the help"
            );
        }
    }
}
