//! JSON-lines service loop: the transport behind `experiments serve`.
//!
//! The loop reads queries (one JSON object per line) to end-of-input,
//! answers the whole batch through [`Advisor::advise_batch`] — so
//! duplicate queries inside one request stream are computed once — and
//! writes one answer line per input line, in input order. A line that
//! fails to parse produces an `{"error": ...}` line in its slot instead
//! of aborting the stream; blank lines are ignored.

use crate::{Advisor, Query};
use serde::Value;
use std::io::{BufRead, Write};

/// What a service pass processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Lines answered with an advice.
    pub answered: usize,
    /// Lines answered with a parse error.
    pub errors: usize,
}

/// One output slot per non-blank input line.
enum Slot {
    /// Index into the parsed-query batch.
    Query(usize),
    Error(String),
}

/// Shared per-line request handling: `None` for a blank line (no
/// response slot), otherwise the parsed query or the error message that
/// the caller must answer with [`error_line`]. Every parse failure is
/// counted on `advisor.query_errors`, whichever transport saw it —
/// stdin, a `--queries` file, or a socket connection.
pub(crate) fn parse_slot(line: &str) -> Option<Result<Query, String>> {
    let text = line.trim();
    if text.is_empty() {
        return None;
    }
    Some(Query::parse_line(text).inspect_err(|_| {
        obs::counter("advisor.query_errors", 1);
    }))
}

/// The structured response for a malformed input line.
pub(crate) fn error_line(msg: &str) -> String {
    serde_json::to_string(&Value::Map(vec![(
        "error".to_string(),
        Value::Str(msg.to_string()),
    )]))
    .expect("error line serializes")
}

/// The response for a parsed query the server did not answer
/// (`"overloaded"` when shed, `"internal"` when its computation
/// panicked): explicit, parseable, and carrying the query's own `id` so
/// a pipelining client can tell which request failed.
pub(crate) fn refusal_line(error: &str, id: Option<&str>) -> String {
    let mut fields = vec![("error".to_string(), Value::Str(error.to_string()))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::Str(id.to_string())));
    }
    serde_json::to_string(&Value::Map(fields)).expect("refusal line serializes")
}

/// Run the service loop over `input`, writing answers to `out`.
pub fn serve_lines<R: BufRead, W: Write>(
    advisor: &Advisor,
    input: R,
    out: &mut W,
) -> std::io::Result<ServeStats> {
    let _span = obs::span("advisor.serve", "advisor");
    let mut queries = Vec::new();
    let mut slots = Vec::new();
    for line in input.lines() {
        let line = line?;
        match parse_slot(&line) {
            None => continue,
            Some(Ok(q)) => {
                slots.push(Slot::Query(queries.len()));
                queries.push(q);
            }
            Some(Err(e)) => slots.push(Slot::Error(e)),
        }
    }
    let answers = advisor.advise_batch(&queries);
    let mut stats = ServeStats {
        answered: 0,
        errors: 0,
    };
    for slot in slots {
        match slot {
            Slot::Query(i) => {
                stats.answered += 1;
                writeln!(out, "{}", answers[i].to_json_line())?;
            }
            Slot::Error(msg) => {
                stats.errors += 1;
                writeln!(out, "{}", error_line(&msg))?;
            }
        }
    }
    out.flush()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_lines_become_error_slots_in_order() {
        let advisor = Advisor::with_defaults();
        let input = "\nnot json\n\
            {\"device\": \"GTX 980\", \"stencil\": \"Heat2D\", \"size\": [64, 64], \"time\": 8}\n\
            {\"device\": \"nope\", \"stencil\": \"Heat2D\", \"size\": [64, 64], \"time\": 8}\n";
        let mut out = Vec::new();
        let stats = serve_lines(&advisor, input.as_bytes(), &mut out).unwrap();
        assert_eq!(
            stats,
            ServeStats {
                answered: 1,
                errors: 2
            }
        );
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"error\":"));
        assert!(lines[1].contains("\"stencil\":\"Heat2D\""));
        assert!(lines[2].contains("unknown device preset"));
    }

    #[test]
    fn oversized_problems_get_error_lines() {
        // T = u64::MAX once wrapped the wavefront count to 0 and ranked
        // the answer by `talg_s: 0.0`; 4e9 x 4e9 x 8 wrapped `iter_points`.
        let advisor = Advisor::with_defaults();
        let input = "{\"device\":\"GTX 980\",\"stencil\":\"Heat2D\",\"size\":[1024,1024],\
            \"time\":18446744073709551615}\n\
            {\"device\":\"GTX 980\",\"stencil\":\"Heat2D\",\"size\":[4000000000,4000000000],\"time\":8}\n";
        let mut out = Vec::new();
        let stats = serve_lines(&advisor, input.as_bytes(), &mut out).unwrap();
        assert_eq!(
            stats,
            ServeStats {
                answered: 0,
                errors: 2
            }
        );
        for line in std::str::from_utf8(&out).unwrap().lines() {
            assert!(line.starts_with("{\"error\":"), "{line}");
            assert!(line.contains("2^53"), "{line}");
        }
    }
}
