//! Compare two benchmark reports (`BENCH_exec.json` or
//! `BENCH_serve.json`) and fail on regression.
//!
//! Exit codes: 0 — no regression; 1 — at least one ratio metric fell
//! below `reference × (1 − band)` or a reference row disappeared;
//! 2 — usage or parse error. See [`experiments::benchdiff`] for what is
//! compared and why absolute seconds are not.

use experiments::benchdiff::{self, DEFAULT_BAND};
use experiments::flags::{self, Command, Stop};

static BENCH_DIFF: Command = Command {
    usage: "bench-diff REFERENCE.json CURRENT.json [--band FRAC]",
    about: "Compare two benchmark reports on their machine-stable ratio\n\
            metrics and exit nonzero when any falls below\n\
            reference x (1 - band). BENCH_exec.json rows gate on\n\
            speedup, simd_speedup, and roofline_ratio; BENCH_serve.json\n\
            gates on store_hit_rate, answered_rate, and warm_speedup.",
    flags: &[&[(
        "--band",
        "FRAC",
        "allowed fractional drop, in [0, 1) (default: 0.6)",
    )]],
    positional: "REFERENCE.json CURRENT.json",
};

fn main() {
    flags::exit(run(&flags::argv()))
}

fn run(argv: &[String]) -> Result<i32, Stop> {
    let p = BENCH_DIFF.parse(argv)?;
    let band = p
        .parse_with("--band", "a fraction in [0, 1)", |v| {
            v.parse().ok().filter(|b| (0.0..1.0).contains(b))
        })?
        .unwrap_or(DEFAULT_BAND);
    let reference = benchdiff::load_rows(&p.positional[0])?;
    let current = benchdiff::load_rows(&p.positional[1])?;
    let diff = benchdiff::diff_rows(&reference, &current, band);
    for r in &diff.rows {
        println!(
            "  {:12} {:16} {:15} ref={:8.3} cur={:8.3} ratio={:5.2} {}",
            r.benchmark,
            r.size,
            r.metric,
            r.reference,
            r.current,
            r.ratio,
            if r.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for m in &diff.missing {
        println!("  {m}: MISSING from current report");
    }
    let n = diff.regressions();
    if n > 0 {
        eprintln!(
            "bench-diff: {n} regression(s) beyond the {:.0}% band",
            100.0 * band
        );
        Ok(1)
    } else {
        println!(
            "bench-diff: ok ({} metrics within the {:.0}% band)",
            diff.rows.len(),
            100.0 * band
        );
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_flag() {
        let help = BENCH_DIFF.help();
        assert!(help.contains(&format!("(default: {DEFAULT_BAND})")));
        for (name, ..) in BENCH_DIFF.rows() {
            assert!(
                help.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{name} missing from the help"
            );
        }
    }
}
