//! The one command-line parser of every binary in the workspace.
//!
//! A command declares its flags once, as [`Flag`] rows grouped into a
//! [`Command`]. [`Command::parse`] turns argv into a [`Parsed`] set and
//! [`Command::help`] renders the help text from the same rows, so a flag
//! cannot be accepted without being documented. Unknown flags, missing
//! values and `--help`/`-h` are handled here and nowhere else, and the
//! typed getters give each kind of bad value one message. Through
//! [`exit`], every binary exits 0 after `--help` and 2 on a usage error.
//!
//! Flags used by more than one command are declared once below as
//! groups, each next to the setup its flags drive: [`THREADS`],
//! [`TELEMETRY`], [`SERVER`] and [`GRID`].

use crate::servebench::{
    parse_devices, parse_stencils, parse_usizes, DEFAULT_DEVICES, DEFAULT_SIZES, DEFAULT_STENCILS,
    DEFAULT_TIMES,
};
use gpu_sim::DeviceConfig;
use std::io::Write as _;
use std::sync::Arc;
use stencil_core::StencilDescriptor;

/// One flag row: `(name, values, help)`. An empty `values` makes a
/// switch; otherwise each space-separated placeholder in it is one value
/// (`"PRE POST"` takes two). `name` may list aliases as
/// `--fig3|--figure3`, the first being the one getters ask for. A `\n`
/// in `help` continues it on an indented line.
pub type Flag = (&'static str, &'static str, &'static str);

/// A command's whole surface: its help prose and its flag table.
pub struct Command {
    /// The synopsis after `USAGE:`.
    pub usage: &'static str,
    /// Prose printed above the flag list.
    pub about: &'static str,
    /// The flag rows, in groups rendered in order.
    pub flags: &'static [&'static [Flag]],
    /// Placeholders of the positional arguments, all required.
    pub positional: &'static str,
}

/// Why a command stops before running.
#[derive(Debug)]
pub enum Stop {
    /// `--help`/`-h` (or nothing to do): print this text, exit 0.
    Help(String),
    /// A usage error: print `error: <message>`, exit 2.
    Fail(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Fail(message)
    }
}

/// The program's arguments, without the program name.
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Exit with a command's code, or as its [`Stop`] asks.
pub fn exit(result: Result<i32, Stop>) -> ! {
    std::process::exit(match result {
        Ok(code) => code,
        Err(Stop::Help(text)) => {
            println!("{text}");
            0
        }
        Err(Stop::Fail(message)) => {
            eprintln!("error: {message}");
            2
        }
    })
}

impl Command {
    /// A command without positional arguments.
    pub const fn new(
        usage: &'static str,
        about: &'static str,
        flags: &'static [&'static [Flag]],
    ) -> Command {
        Command {
            usage,
            about,
            flags,
            positional: "",
        }
    }

    /// Every flag row, in help order.
    pub fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The help text, rendered from the flag table.
    pub fn help(&self) -> String {
        let mut out = format!("{}\n\nUSAGE: {}\n\nFLAGS:\n", self.about, self.usage);
        let indent = format!("\n{:24}", "");
        for (name, values, help) in self.rows() {
            let left = format!("{name} {values}");
            let left = left.trim_end();
            // A long flag takes a line of its own.
            let gap = if left.len() > 21 { &indent } else { " " };
            let help = help.replace('\n', &indent);
            out += &format!("  {left:21}{gap}{help}\n");
        }
        out.pop();
        out
    }

    /// Split `argv` into flags and positional arguments. A flag takes
    /// its values from the next arguments whatever they look like, and
    /// the last occurrence of a repeated flag wins.
    pub fn parse(&'static self, argv: &[String]) -> Result<Parsed, Stop> {
        let mut parsed = Parsed {
            cmd: self,
            given: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help(self.help()));
            }
            if !arg.starts_with('-') {
                parsed.positional.push(arg.clone());
                continue;
            }
            let (name, values, _) = self
                .rows()
                .find(|(name, ..)| name.split('|').any(|alias| alias == arg))
                .ok_or_else(|| format!("unknown flag '{arg}' (try --help)"))?;
            let values = values
                .split_whitespace()
                .map(|_| args.next().cloned())
                .collect::<Option<Vec<String>>>()
                .ok_or_else(|| format!("{arg} needs a value ({values})"))?;
            parsed.given.push((canonical(name), values));
        }
        let wanted = self.positional.split_whitespace().count();
        if let Some(extra) = parsed.positional.get(wanted) {
            return Err(format!("unexpected argument '{extra}' (try --help)").into());
        }
        if parsed.positional.len() < wanted {
            return Err(format!("expected {} (try --help)", self.positional).into());
        }
        Ok(parsed)
    }
}

fn canonical(name: &'static str) -> &'static str {
    name.split('|').next().unwrap_or(name)
}

/// A parsed command line. Getters take a flag's canonical name and
/// panic on a name the command does not declare: that is a bug in the
/// caller, not bad input.
pub struct Parsed {
    cmd: &'static Command,
    given: Vec<(&'static str, Vec<String>)>,
    /// The positional arguments, as many as [`Command::positional`] names.
    pub positional: Vec<String>,
}

impl Parsed {
    fn declared(&self, name: &str) {
        assert!(
            self.cmd.rows().any(|(n, ..)| canonical(n) == name),
            "{name} is not a flag of `{}`",
            self.cmd.usage
        );
    }

    /// The values of every occurrence of `name`, in command-line order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a [String]> + 'a {
        self.declared(name);
        self.given
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, values)| values.as_slice())
    }

    /// The values of the last occurrence of `name`.
    pub fn values(&self, name: &str) -> Option<&[String]> {
        self.declared(name);
        let (_, values) = self.given.iter().rev().find(|(n, _)| *n == name)?;
        Some(values)
    }

    /// The (first) value of the last occurrence of `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name).map(|v| v[0].as_str())
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.values(name).is_some()
    }

    /// Whether any flag of `group` was given.
    pub fn has_any(&self, group: &[Flag]) -> bool {
        group.iter().any(|(name, ..)| self.has(canonical(name)))
    }

    /// Where the last occurrence of `name` sits among the given flags,
    /// for two flags whose order on the command line decides.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.declared(name);
        self.given.iter().rposition(|(n, _)| *n == name)
    }

    /// The value of `name`, or a usage error when it is missing.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name)
            .ok_or_else(|| format!("{name} is required"))
    }

    /// A path (or any other free-form string).
    pub fn path(&self, name: &str) -> Option<String> {
        self.value(name).map(str::to_string)
    }

    /// The value of `name` read by `read`, which returns `None` for a
    /// value that is not `expected`.
    pub fn parse_with<T>(
        &self,
        name: &str,
        expected: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| read(v).ok_or_else(|| format!("invalid {name} '{v}' (expected {expected})")))
            .transpose()
    }

    /// A count: an integer >= 1.
    pub fn count(&self, name: &str) -> Result<Option<usize>, String> {
        self.parse_with(name, "an integer >= 1", |v| {
            v.parse().ok().filter(|n| *n >= 1)
        })
    }

    /// A finite, non-negative number.
    pub fn float(&self, name: &str) -> Result<Option<f64>, String> {
        self.parse_with(name, "a finite number >= 0", |v| {
            v.parse().ok().filter(|f: &f64| f.is_finite() && *f >= 0.0)
        })
    }

    /// An unsigned integer.
    pub fn u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.parse_with(name, "an unsigned integer", |v| v.parse().ok())
    }
}

/// `--threads`: the global rayon pool.
#[rustfmt::skip]
pub const THREADS: &[Flag] = &[
    ("--threads", "N", "size the global rayon pool (default: all cores); results\n\
                        are bit-identical for any N, only speed changes"),
];

/// The checked `--threads` value; [`Threads::install`] applies it.
pub struct Threads(Option<usize>);

impl Threads {
    pub fn parse(p: &Parsed) -> Result<Threads, String> {
        Ok(Threads(p.count("--threads")?))
    }

    /// Size the global rayon pool, if `--threads` was given.
    pub fn install(self) {
        if let Some(n) = self.0 {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("configure global thread pool");
        }
    }
}

/// `--log-out`, alone for a command without the rest of [`TELEMETRY`].
pub const LOG_OUT: Flag = ("--log-out", "PATH", "write the run's telemetry as JSONL");

/// The telemetry group: recorder verbosity and the two exports.
#[rustfmt::skip]
pub const TELEMETRY: &[Flag] = &[
    LOG_OUT,
    ("--log-level", "LEVEL", "event verbosity: quiet|info|debug (default: info);\n\
                              counters/histograms/spans are always collected"),
    ("--metrics-out", "PATH", "stream one JSON metrics-summary line per interval\n\
                               (.prom extension: Prometheus text exposition)"),
    ("--metrics-interval-ms", "N", "emitter period (default: 1000)"),
];

/// The checked [`TELEMETRY`] settings; [`Telemetry::start`] applies them.
pub struct Telemetry {
    level: obs::Level,
    metrics_out: Option<String>,
    interval: std::time::Duration,
}

impl Telemetry {
    pub fn parse(p: &Parsed) -> Result<Telemetry, String> {
        let level = p.parse_with("--log-level", "quiet|info|debug", obs::Level::parse)?;
        let interval_ms = p.count("--metrics-interval-ms")?.unwrap_or(1000);
        Ok(Telemetry {
            level: level.unwrap_or(obs::Level::Info),
            metrics_out: p.path("--metrics-out"),
            interval: std::time::Duration::from_millis(interval_ms as u64),
        })
    }

    /// Install the sharded recorder, a panic hook that dumps the flight
    /// recorder into `flight_dir`, and the `--metrics-out` emitter. The
    /// recorder is installed even without an export flag: it arms the
    /// flight recorder and keeps hot-path cost to striped relaxed atomics.
    pub fn start(self, flight_dir: &str) -> Recording {
        let recorder = Arc::new(obs::ShardedRecorder::new(self.level));
        obs::install(recorder.clone());
        obs::flight::install_panic_hook(flight_dir.into());
        let emitter = self.metrics_out.map(|path| {
            let rec = recorder.clone();
            obs::MetricsEmitter::start(path.into(), self.interval, Box::new(move || rec.snapshot()))
                .expect("start --metrics-out emitter")
        });
        Recording { recorder, emitter }
    }
}

/// A run's installed telemetry.
pub struct Recording {
    pub recorder: Arc<obs::ShardedRecorder>,
    emitter: Option<obs::MetricsEmitter>,
}

impl Recording {
    /// Stop the emitter (it writes its final line) and detach the
    /// recorder, so the exports that follow do not append to the store
    /// they snapshot.
    pub fn stop(self) -> Arc<obs::ShardedRecorder> {
        if let Some(emitter) = self.emitter {
            emitter.stop();
        }
        obs::uninstall();
        self.recorder
    }
}

/// Write the `--log-out` JSONL file.
pub fn write_log(recorder: &obs::ShardedRecorder, path: &str) {
    let file = std::fs::File::create(path).expect("create --log-out file");
    let mut w = std::io::BufWriter::new(file);
    recorder.write_jsonl(&mut w).expect("write --log-out file");
    w.flush().expect("flush --log-out file");
}

/// The socket server's tuning knobs.
#[rustfmt::skip]
pub const SERVER: &[Flag] = &[
    ("--workers",        "N", "socket worker threads (default: core count)"),
    ("--queue-cap",      "N", "shared admission queue bound (default: 1024)"),
    ("--conn-queue-cap", "N", "per-connection outstanding-line bound (default: 128)"),
    ("--window-us",      "N", "batch coalescing window in us (default: 500)"),
    ("--max-batch",      "N", "max requests per worker batch (default: 64)"),
];

/// The server configuration [`SERVER`] describes.
pub fn server_config(p: &Parsed) -> Result<advisor::ServerConfig, String> {
    let d = advisor::ServerConfig::default();
    Ok(advisor::ServerConfig {
        workers: p.count("--workers")?.unwrap_or(d.workers),
        queue_cap: p.count("--queue-cap")?.unwrap_or(d.queue_cap),
        conn_queue_cap: p.count("--conn-queue-cap")?.unwrap_or(d.conn_queue_cap),
        batch_window: p
            .u64("--window-us")?
            .map_or(d.batch_window, std::time::Duration::from_micros),
        max_batch: p.count("--max-batch")?.unwrap_or(d.max_batch),
    })
}

/// `--samples`, alone for a command without the rest of [`GRID`].
pub const SAMPLES: Flag = (
    "--samples",
    "N",
    "Citer micro-benchmark samples (default: 16)",
);

/// `--samples`, defaulted.
pub fn samples(p: &Parsed) -> Result<usize, String> {
    Ok(p.count("--samples")?.unwrap_or(16))
}

/// The (device, stencil, size, time) grid that `precompute` sweeps and
/// `serve-bench` replays; the defaults are `servebench::DEFAULT_*`.
#[rustfmt::skip]
pub const GRID: &[Flag] = &[
    ("--devices",  "a,b",   "device presets (default: GTX 980)"),
    ("--stencils", "x,y",   "stencil kinds (default: Heat2D,Jacobi2D)"),
    ("--sizes",    "s1,s2", "per-dimension extents (default: 512,1024,2048);\n\
                             a 2D stencil at 1024 means 1024 x 1024"),
    ("--times",    "t1,t2", "time horizons (default: 64,128)"),
    SAMPLES,
];

/// The grid [`GRID`] describes.
pub struct Grid {
    pub devices: Vec<DeviceConfig>,
    pub stencils: Vec<StencilDescriptor>,
    pub sizes: Vec<usize>,
    pub times: Vec<usize>,
    pub samples: usize,
}

impl Grid {
    pub fn parse(p: &Parsed) -> Result<Grid, String> {
        Ok(Grid {
            devices: parse_devices(p.value("--devices").unwrap_or(DEFAULT_DEVICES))?,
            stencils: parse_stencils(p.value("--stencils").unwrap_or(DEFAULT_STENCILS))?,
            sizes: parse_usizes(p.value("--sizes").unwrap_or(DEFAULT_SIZES), "--sizes")?,
            times: parse_usizes(p.value("--times").unwrap_or(DEFAULT_TIMES), "--times")?,
            samples: samples(p)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CMD: Command = Command::new(
        "test [FLAGS]",
        "A command for the parser tests.",
        &[
            &[
                ("--fig3|--figure3", "", "a switch with an alias"),
                ("--compare", "PRE POST", "two values"),
                ("--zipf", "S", "a float"),
                ("--within", "F", "a float"),
                ("--out", "PATH", "a path"),
            ],
            THREADS,
            TELEMETRY,
            SERVER,
            GRID,
        ],
    );

    fn parse(args: &[&str]) -> Result<Parsed, Stop> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        CMD.parse(&argv)
    }

    fn fails(args: &[&str]) -> String {
        match parse(args) {
            Err(Stop::Fail(message)) => message,
            other => panic!("{args:?} parsed: {:?}", other.map(|p| p.given)),
        }
    }

    #[test]
    fn unknown_flags_missing_values_and_help_stop_the_parse() {
        assert_eq!(fails(&["--bogus"]), "unknown flag '--bogus' (try --help)");
        assert_eq!(fails(&["-x"]), "unknown flag '-x' (try --help)");
        assert_eq!(fails(&["--out"]), "--out needs a value (PATH)");
        assert_eq!(
            fails(&["--compare", "a"]),
            "--compare needs a value (PRE POST)"
        );
        assert_eq!(
            fails(&["stray"]),
            "unexpected argument 'stray' (try --help)"
        );
        for help in ["--help", "-h"] {
            assert!(matches!(parse(&["--out", "x", help]), Err(Stop::Help(h)) if h == CMD.help()));
        }
        // A value is taken as-is, even when it looks like a flag.
        assert_eq!(
            parse(&["--out", "--help"]).unwrap().value("--out"),
            Some("--help")
        );
    }

    #[test]
    fn switches_aliases_pairs_and_repeats() {
        let p = parse(&[
            "--figure3",
            "--compare",
            "pre.jsonl",
            "post.jsonl",
            "--out",
            "a",
        ])
        .unwrap();
        assert!(p.has("--fig3"));
        assert!(!p.has("--zipf"));
        assert_eq!(
            p.values("--compare").unwrap(),
            ["pre.jsonl".to_string(), "post.jsonl".to_string()]
        );
        let p = parse(&["--out", "a", "--fig3", "--out", "b"]).unwrap();
        assert_eq!(p.path("--out").as_deref(), Some("b"));
        assert_eq!(p.all("--out").count(), 2);
        assert!(p.position("--out") > p.position("--fig3"));
        assert_eq!(p.position("--zipf"), None);
        assert_eq!(p.required("--zipf").unwrap_err(), "--zipf is required");
    }

    #[test]
    #[should_panic(expected = "--outt is not a flag")]
    fn undeclared_getter_names_are_bugs() {
        parse(&[]).unwrap().has("--outt");
    }

    #[test]
    fn typed_getters_enforce_their_bounds() {
        let p = parse(&["--threads", "0"]).unwrap();
        assert_eq!(
            p.count("--threads").unwrap_err(),
            "invalid --threads '0' (expected an integer >= 1)"
        );
        assert!(Threads::parse(&p).is_err());
        let p = parse(&["--samples", "0"]).unwrap();
        assert!(samples(&p).is_err());
        assert!(Grid::parse(&p).is_err());
        let p = parse(&["--zipf", "-1", "--within", "NaN"]).unwrap();
        assert_eq!(
            p.float("--zipf").unwrap_err(),
            "invalid --zipf '-1' (expected a finite number >= 0)"
        );
        assert!(p.float("--within").is_err());
        let p = parse(&["--zipf", "0", "--within", "inf"]).unwrap();
        assert_eq!(p.float("--zipf").unwrap(), Some(0.0));
        assert!(p.float("--within").is_err());
        let p = parse(&["--window-us", "0", "--max-batch", "0"]).unwrap();
        assert_eq!(p.u64("--window-us").unwrap(), Some(0));
        assert!(server_config(&p).is_err());
        let p = parse(&["--log-level", "loud"]).unwrap();
        assert_eq!(
            Telemetry::parse(&p).err().unwrap(),
            "invalid --log-level 'loud' (expected quiet|info|debug)"
        );
    }

    #[test]
    fn groups_default_to_what_their_help_says() {
        let p = parse(&[]).unwrap();
        let grid = Grid::parse(&p).unwrap();
        assert_eq!(grid.devices.len(), 1);
        assert_eq!(grid.samples, 16);
        let help = CMD.help();
        for default in [
            DEFAULT_DEVICES,
            DEFAULT_STENCILS,
            DEFAULT_SIZES,
            DEFAULT_TIMES,
        ] {
            assert!(help.contains(&format!("(default: {default})")), "{default}");
        }
        let server = server_config(&p).unwrap();
        for (flag, default) in [
            ("--queue-cap", server.queue_cap),
            ("--conn-queue-cap", server.conn_queue_cap),
            ("--window-us", server.batch_window.as_micros() as usize),
            ("--max-batch", server.max_batch),
        ] {
            let line = help
                .lines()
                .find(|l| l.trim_start().starts_with(flag))
                .unwrap();
            assert!(line.ends_with(&format!("(default: {default})")), "{line}");
        }
    }

    #[test]
    fn help_lists_every_flag() {
        let help = CMD.help();
        for (name, ..) in CMD.rows() {
            assert!(
                help.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{name} missing from the help"
            );
        }
    }
}
