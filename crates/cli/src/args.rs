//! Hand-rolled argument parsing (keeps the dependency set to the approved
//! crates; the grammar is small enough that a parser library would be
//! heavier than the parser).

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use mc_model::{ErrorCategory, McError};

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs, keys without the leading dashes.
    pub options: BTreeMap<String, String>,
    /// Every value of each repeatable flag (see [`REPEATABLE`]), in the
    /// order given. Non-repeatable flags never appear here.
    multi: BTreeMap<String, Vec<String>>,
}

/// The most threads a count option may ask for: `serve --workers`,
/// `serve --listen --max-conns` and `bench loadgen --conns` each start up
/// to that many OS threads, so a typo must not ask for 100,000.
pub const MAX_THREADS: usize = 1 << 10;

/// Flags that may be given more than once. Everything else repeating is
/// still a [`CliError::DuplicateFlag`] — last-wins would silently drop a
/// value. `--warm` repeats because its value embeds a file path, and
/// paths may contain the `,` the single-flag list form splits on.
const REPEATABLE: &[&str] = &["warm"];

/// CLI errors: usage mistakes plus everything the model pipeline can
/// report ([`McError`]), with a distinct exit code per class.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No subcommand given.
    NoCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A flag is missing its value.
    MissingValue(String),
    /// The same flag was given twice; last-wins would silently drop the
    /// first value, so repetition is a usage error instead.
    DuplicateFlag(String),
    /// A required option is absent.
    MissingOption(&'static str),
    /// An option value failed to parse.
    BadValue(&'static str, String),
    /// Unknown platform name.
    UnknownPlatform(String),
    /// A NUMA-node option points past the platform's nodes.
    NumaOutOfRange {
        /// The offending option name.
        option: &'static str,
        /// The value given.
        numa: usize,
        /// Number of NUMA nodes the platform has.
        count: usize,
    },
    /// An option that must be at least one was zero.
    NonPositive(&'static str),
    /// Unexpected positional argument.
    UnexpectedPositional(String),
    /// A malformed serve-protocol request (not JSON, missing or
    /// ill-typed field, unknown op). The service analogue of a usage
    /// error: exit code 2 when it escapes to the process boundary.
    Protocol(String),
    /// A flag combination that the grammar cannot express as a single
    /// missing/bad option (e.g. mutually exclusive flags).
    Usage(String),
    /// A tenant exceeded its admission credits on the listen transport.
    /// Surfaced in-band as the `overload` error class so clients can
    /// back off and retry; never escapes to the process boundary.
    Overload(String),
    /// Unknown `--generate` pattern name.
    UnknownPattern(String),
    /// A trace failed to parse or replay (invalid data, exit 3).
    Replay(mc_replay::ReplayError),
    /// The scheduler rejected its inputs (degenerate queue or fleet,
    /// exit 3) or failed reading a trace file (exit 4).
    Sched(mc_sched::SchedError),
    /// The model pipeline failed (bad data or I/O).
    Data(McError),
}

/// Exit code for command-line usage errors.
pub const EXIT_USAGE: u8 = 2;
/// Exit code for invalid or degenerate input data.
pub const EXIT_INVALID_DATA: u8 = 3;
/// Exit code for file I/O failures.
pub const EXIT_IO: u8 = 4;

impl CliError {
    /// The process exit code for this error: [`EXIT_USAGE`] for usage
    /// mistakes, [`EXIT_INVALID_DATA`] for degenerate or invalid data,
    /// [`EXIT_IO`] for file I/O failures.
    pub fn exit_code(&self) -> u8 {
        let category = match self {
            CliError::Data(e) => e.category(),
            CliError::Replay(e) => e.category(),
            CliError::Sched(e) => e.category(),
            _ => return EXIT_USAGE,
        };
        match category {
            ErrorCategory::InvalidData => EXIT_INVALID_DATA,
            ErrorCategory::Io => EXIT_IO,
        }
    }

    /// Whether printing the usage text alongside the error helps (true
    /// exactly for usage errors).
    pub fn is_usage(&self) -> bool {
        self.exit_code() == EXIT_USAGE
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => write!(f, "no subcommand given"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'"),
            CliError::MissingValue(k) => write!(f, "--{k} needs a value"),
            CliError::DuplicateFlag(k) => write!(f, "--{k} given more than once"),
            CliError::MissingOption(k) => write!(f, "missing required option --{k}"),
            CliError::BadValue(k, v) => write!(f, "cannot parse --{k} value '{v}'"),
            CliError::UnknownPlatform(p) => {
                let names: Vec<String> = mc_topology::platforms::extended()
                    .iter()
                    .map(|pl| pl.name().to_string())
                    .collect();
                write!(
                    f,
                    "unknown platform '{p}' (expected one of: {})",
                    names.join(", ")
                )
            }
            CliError::NumaOutOfRange {
                option,
                numa,
                count,
            } => write!(
                f,
                "--{option} {numa} is out of range: the platform has {count} NUMA nodes (0..={})",
                count.saturating_sub(1)
            ),
            CliError::NonPositive(k) => write!(f, "--{k} must be at least 1"),
            CliError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            CliError::Protocol(m) => write!(f, "bad request: {m}"),
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Overload(m) => write!(f, "overloaded: {m}"),
            CliError::UnknownPattern(p) => write!(
                f,
                "unknown pattern '{p}' (expected one of: {})",
                mc_replay::generate::names().join(", ")
            ),
            CliError::Replay(e) => write!(f, "{e}"),
            CliError::Sched(e) => write!(f, "{e}"),
            CliError::Data(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Data(e) => Some(e),
            CliError::Replay(e) => Some(e),
            CliError::Sched(e) => Some(e),
            _ => None,
        }
    }
}

impl From<McError> for CliError {
    fn from(e: McError) -> Self {
        CliError::Data(e)
    }
}

impl From<mc_replay::ReplayError> for CliError {
    fn from(e: mc_replay::ReplayError) -> Self {
        CliError::Replay(e)
    }
}

impl From<mc_sched::SchedError> for CliError {
    fn from(e: mc_sched::SchedError) -> Self {
        CliError::Sched(e)
    }
}

/// An unknown pattern keeps its own variant; out-of-range generator
/// parameters are usage errors.
impl From<mc_replay::generate::GenError> for CliError {
    fn from(e: mc_replay::generate::GenError) -> Self {
        match e {
            mc_replay::generate::GenError::UnknownPattern(p) => CliError::UnknownPattern(p),
            e => CliError::Usage(e.to_string()),
        }
    }
}

impl From<mc_replay::TraceError> for CliError {
    fn from(e: mc_replay::TraceError) -> Self {
        CliError::Replay(mc_replay::ReplayError::Trace(e))
    }
}

impl Args {
    /// Parse an `argv`-style iterator (without the program name).
    pub fn parse<I, S>(argv: I) -> Result<Args, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = argv.into_iter().map(Into::into);
        let command = iter.next().ok_or(CliError::NoCommand)?;
        if command.starts_with('-') {
            return Err(CliError::NoCommand);
        }
        let mut options = BTreeMap::new();
        let mut multi: BTreeMap<String, Vec<String>> = BTreeMap::new();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                // Both `--key value` and `--key=value` spellings are
                // accepted; `=` binds the value inline.
                let (key, value) = match key.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => {
                        let value = iter
                            .next()
                            .ok_or_else(|| CliError::MissingValue(key.to_string()))?;
                        (key.to_string(), value)
                    }
                };
                if REPEATABLE.contains(&key.as_str()) {
                    multi.entry(key).or_default().push(value);
                } else if options.insert(key.clone(), value).is_some() {
                    return Err(CliError::DuplicateFlag(key));
                }
            } else {
                return Err(CliError::UnexpectedPositional(arg));
            }
        }
        Ok(Args {
            command,
            options,
            multi,
        })
    }

    /// A required string option (for a repeatable flag, its last value).
    pub fn require(&self, key: &'static str) -> Result<&str, CliError> {
        self.get(key).ok_or(CliError::MissingOption(key))
    }

    /// An optional string option. For a repeatable flag given more than
    /// once, this is the *last* value; [`Args::get_all`] has them all.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str).or_else(|| {
            self.multi
                .get(key)
                .and_then(|v| v.last())
                .map(String::as_str)
        })
    }

    /// Every value a repeatable flag was given, in order; empty when the
    /// flag is absent (or not repeatable — those live in `options`).
    pub fn get_all(&self, key: &str) -> &[String] {
        self.multi.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// An optional count with a default; zero is a
    /// [`CliError::NonPositive`].
    pub fn count_or(&self, key: &'static str, default: usize) -> Result<usize, CliError> {
        match self.num_or(key, default)? {
            0 => Err(CliError::NonPositive(key)),
            n => Ok(n),
        }
    }

    /// An optional core count with a default, under the one core rule
    /// ([`mc_model::core_count`]); zero is a [`CliError::NonPositive`].
    pub fn cores_or(&self, key: &'static str, default: usize) -> Result<usize, CliError> {
        mc_model::core_count(self.count_or(key, default)?)
            .map_err(|e| CliError::Usage(format!("--{key} {e}")))
    }

    /// An optional thread count with a default: zero is a
    /// [`CliError::NonPositive`], more than [`MAX_THREADS`] a usage error.
    pub fn threads_or(&self, key: &'static str, default: usize) -> Result<usize, CliError> {
        match self.count_or(key, default)? {
            n if n <= MAX_THREADS => Ok(n),
            n => Err(CliError::Usage(format!(
                "--{key} must be at most {MAX_THREADS} threads, got {n}"
            ))),
        }
    }

    /// An optional yes/no option, off when absent: `yes`/`true`/`1` mean
    /// on, `no`/`false`/`0` mean off, anything else is a
    /// [`CliError::BadValue`] rather than a silent "off".
    pub fn flag(&self, key: &'static str) -> Result<bool, CliError> {
        match self.get(key) {
            None | Some("no" | "false" | "0") => Ok(false),
            Some("yes" | "true" | "1") => Ok(true),
            Some(other) => Err(CliError::BadValue(key, other.to_string())),
        }
    }

    /// Reject every option not in `known`, so a misspelt flag is a usage
    /// error instead of being ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), CliError> {
        match self
            .options
            .keys()
            .chain(self.multi.keys())
            .find(|k| !known.contains(&k.as_str()))
        {
            Some(k) => Err(CliError::Usage(format!("unknown option --{k}"))),
            None => Ok(()),
        }
    }

    /// [`Args::only`] with the options that `usage` declares for this
    /// command. Its synopsis is the first line whose first two words are
    /// `program` and the command (or a placeholder that starts with a
    /// capital, like `TARGET[,TARGET]...`), plus the lines it continues
    /// with a trailing `\`; the `--name` tokens on them are the known
    /// options. A command without a synopsis is a [`CliError::UnknownCommand`].
    pub fn only_as_in(&self, usage: &str, program: &str) -> Result<(), CliError> {
        let is_synopsis = |line: &&str| {
            let mut words = line.split_whitespace();
            let placeholder = |w: &str| w.starts_with(|c: char| c.is_ascii_uppercase());
            words.next() == Some(program)
                && words
                    .next()
                    .is_some_and(|w| w == self.command || placeholder(w))
        };
        let mut lines = usage
            .lines()
            .skip_while(|line| !is_synopsis(line))
            .peekable();
        if lines.peek().is_none() {
            return Err(CliError::UnknownCommand(self.command.clone()));
        }
        let not_name = |c: char| !c.is_ascii_alphanumeric() && c != '-';
        let mut known = Vec::new();
        for line in lines {
            for rest in line.split("--").skip(1) {
                known.extend(rest.split(not_name).next());
            }
            if !line.trim_end().ends_with('\\') {
                break;
            }
        }
        self.only(&known)
    }

    /// A numeric option, if given.
    pub fn num<T: FromStr>(&self, key: &'static str) -> Result<Option<T>, CliError> {
        let parse = |raw: &str| raw.parse().map_err(|_| CliError::BadValue(key, raw.into()));
        self.get(key).map(parse).transpose()
    }

    /// A required numeric option.
    pub fn require_num<T: FromStr>(&self, key: &'static str) -> Result<T, CliError> {
        self.num(key)?.ok_or(CliError::MissingOption(key))
    }

    /// An optional numeric option with a default.
    pub fn num_or<T: FromStr>(&self, key: &'static str, default: T) -> Result<T, CliError> {
        Ok(self.num(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(["bench", "--platform", "henri", "--comp-numa", "1"]).unwrap();
        assert_eq!(a.command, "bench");
        assert_eq!(a.require("platform").unwrap(), "henri");
        assert_eq!(a.require_num::<u16>("comp-numa").unwrap(), 1);
    }

    #[test]
    fn equals_form_binds_values_inline() {
        let a = Args::parse(["bench", "--platform=henri", "--comp-numa=1"]).unwrap();
        assert_eq!(a.require("platform").unwrap(), "henri");
        assert_eq!(a.require_num::<u16>("comp-numa").unwrap(), 1);
        // Values containing '=' split at the first one only.
        let a = Args::parse(["serve", "--warm=henri=model.txt"]).unwrap();
        assert_eq!(a.require("warm").unwrap(), "henri=model.txt");
        // An inline empty value is an empty string, not a parse error.
        let a = Args::parse(["bench", "--platform="]).unwrap();
        assert_eq!(a.require("platform").unwrap(), "");
    }

    #[test]
    fn duplicate_flags_error_instead_of_last_wins() {
        for argv in [
            vec!["bench", "--platform", "henri", "--platform", "dahu"],
            vec!["bench", "--platform=henri", "--platform=dahu"],
            vec!["bench", "--platform", "henri", "--platform=dahu"],
        ] {
            let e = Args::parse(argv).unwrap_err();
            assert_eq!(e, CliError::DuplicateFlag("platform".into()));
            assert_eq!(e.exit_code(), EXIT_USAGE);
            assert!(e.is_usage());
            assert!(e.to_string().contains("--platform"));
        }
    }

    #[test]
    fn warm_repeats_instead_of_erroring() {
        // Paths may contain commas; the repeated-flag form is the
        // unambiguous spelling, so --warm must not hit DuplicateFlag.
        let a = Args::parse([
            "serve",
            "--warm",
            "henri=models/a,b.txt",
            "--warm=dahu=d.txt",
        ])
        .unwrap();
        assert_eq!(a.get_all("warm"), ["henri=models/a,b.txt", "dahu=d.txt"]);
        // get() on a repeated flag reports the last value.
        assert_eq!(a.get("warm"), Some("dahu=d.txt"));
        // A single occurrence is visible through both accessors.
        let a = Args::parse(["serve", "--warm", "henri=m.txt"]).unwrap();
        assert_eq!(a.get_all("warm"), ["henri=m.txt"]);
        assert_eq!(a.get("warm"), Some("henri=m.txt"));
        // Absent: empty slice, not a panic.
        assert!(Args::parse(["serve"]).unwrap().get_all("warm").is_empty());
        // Non-repeatable flags still reject duplication.
        let e = Args::parse(["serve", "--workers", "2", "--workers", "3"]).unwrap_err();
        assert_eq!(e, CliError::DuplicateFlag("workers".into()));
    }

    #[test]
    fn empty_argv_is_no_command() {
        assert_eq!(Args::parse(Vec::<String>::new()), Err(CliError::NoCommand));
    }

    #[test]
    fn flag_without_value_errors() {
        assert_eq!(
            Args::parse(["bench", "--platform"]),
            Err(CliError::MissingValue("platform".into()))
        );
    }

    #[test]
    fn positional_after_command_errors() {
        assert_eq!(
            Args::parse(["bench", "henri"]),
            Err(CliError::UnexpectedPositional("henri".into()))
        );
    }

    #[test]
    fn missing_required_option_errors() {
        let a = Args::parse(["bench"]).unwrap();
        assert_eq!(
            a.require("platform"),
            Err(CliError::MissingOption("platform"))
        );
    }

    #[test]
    fn bad_numeric_value_errors() {
        let a = Args::parse(["bench", "--cores", "many"]).unwrap();
        assert!(matches!(
            a.require_num::<usize>("cores"),
            Err(CliError::BadValue("cores", _))
        ));
    }

    #[test]
    fn flags_take_yes_or_no_and_reject_typos() {
        let a = Args::parse(["replay", "--stream", "yes", "--search=0"]).unwrap();
        assert_eq!(a.flag("stream"), Ok(true));
        assert_eq!(a.flag("search"), Ok(false));
        assert_eq!(a.flag("sparse"), Ok(false));
        for on in ["yes", "true", "1"] {
            assert_eq!(
                Args::parse(["x", "--eager", on]).unwrap().flag("eager"),
                Ok(true)
            );
        }
        for off in ["no", "false", "0"] {
            assert_eq!(
                Args::parse(["x", "--eager", off]).unwrap().flag("eager"),
                Ok(false)
            );
        }
        let e = Args::parse(["replay", "--stream", "yse"])
            .unwrap()
            .flag("stream")
            .unwrap_err();
        assert_eq!(e, CliError::BadValue("stream", "yse".into()));
        assert_eq!(e.exit_code(), EXIT_USAGE);
    }

    #[test]
    fn only_rejects_options_outside_the_list() {
        let a = Args::parse(["cxl", "--cores", "4", "--warm", "x"]).unwrap();
        assert_eq!(a.only(&["cores", "warm"]), Ok(()));
        let e = a.only(&["cores"]).unwrap_err();
        assert_eq!(e, CliError::Usage("unknown option --warm".into()));
        assert_eq!(e.exit_code(), EXIT_USAGE);
    }

    const DEMO_USAGE: &str = "\
usage:
  demo run   --alpha N [--beta-two X] \\
             (--gamma FILE | --delta=D)
  demo stop  [--force yes]
  demo ALL   [--verbose yes]

--extra in prose after the synopsis is not an option.
";

    fn check(argv: &[&str], usage: &str, program: &str) -> Result<(), CliError> {
        Args::parse(argv.iter().copied())
            .unwrap()
            .only_as_in(usage, program)
    }

    #[test]
    fn synopsis_continuation_lines_are_read() {
        let argv = [
            "run",
            "--alpha",
            "1",
            "--beta-two",
            "2",
            "--gamma",
            "g",
            "--delta",
            "d",
        ];
        assert_eq!(check(&argv, DEMO_USAGE, "demo"), Ok(()));
        assert_eq!(
            check(&["stop", "--force", "yes"], DEMO_USAGE, "demo"),
            Ok(())
        );
        // Options of another command's synopsis are not this command's.
        let e = check(&["stop", "--alpha", "1"], DEMO_USAGE, "demo").unwrap_err();
        assert_eq!(e, CliError::Usage("unknown option --alpha".into()));
        assert_eq!(e.exit_code(), EXIT_USAGE);
    }

    #[test]
    fn prose_after_a_synopsis_declares_nothing() {
        let e = check(&["run", "--extra", "1"], DEMO_USAGE, "demo").unwrap_err();
        assert_eq!(e, CliError::Usage("unknown option --extra".into()));
        // The same prose word stays unknown to a placeholder synopsis.
        assert!(check(&["anything", "--extra", "1"], DEMO_USAGE, "demo").is_err());
    }

    #[test]
    fn a_command_without_a_synopsis_is_unknown() {
        let e = check(
            &["frobnicate"],
            "usage:\n  other frobnicate --x N\n",
            "demo",
        )
        .unwrap_err();
        assert_eq!(e, CliError::UnknownCommand("frobnicate".into()));
        assert_eq!(e.exit_code(), EXIT_USAGE);
    }

    #[test]
    fn a_capitalised_second_word_stands_for_any_command() {
        assert_eq!(
            check(&["table1,fig1", "--verbose", "yes"], DEMO_USAGE, "demo"),
            Ok(())
        );
        assert!(check(&["table1", "--force", "yes"], DEMO_USAGE, "demo").is_err());
    }

    #[test]
    fn every_synopsis_option_is_accepted() {
        let usage = crate::commands::USAGE;
        let mut checked = 0;
        let mut command = None;
        for line in usage.lines() {
            let mut words = line.split_whitespace();
            if words.next() == Some("memcontend") {
                command = words.next();
            }
            let Some(name) = command else { continue };
            for rest in line.split("--").skip(1) {
                let option: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                let args = Args::parse([name.to_string(), format!("--{option}"), "x".into()]);
                assert_eq!(
                    args.unwrap().only_as_in(usage, "memcontend"),
                    Ok(()),
                    "memcontend {name} --{option}"
                );
                checked += 1;
            }
            if !line.trim_end().ends_with('\\') {
                command = None;
            }
        }
        assert_eq!(checked, 49);
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(["bench"]).unwrap();
        assert_eq!(a.num_or("cores", 4usize).unwrap(), 4);
        assert_eq!(a.count_or("cores", 4), Ok(4));
        let a = Args::parse(["bench", "--cores", "0"]).unwrap();
        assert_eq!(a.count_or("cores", 4), Err(CliError::NonPositive("cores")));
        assert_eq!(a.cores_or("cores", 4), Err(CliError::NonPositive("cores")));
        let a = Args::parse(["bench", "--cores", "1025"]).unwrap();
        let e = a.cores_or("cores", 4).unwrap_err();
        assert_eq!(e.exit_code(), EXIT_USAGE);
        assert!(e.to_string().contains("2^10"), "{e}");
    }

    #[test]
    fn errors_display_helpfully() {
        assert!(CliError::MissingOption("platform")
            .to_string()
            .contains("--platform"));
        let e = CliError::NumaOutOfRange {
            option: "comp-numa",
            numa: 7,
            count: 2,
        };
        assert!(e.to_string().contains("--comp-numa 7"));
        assert!(e.to_string().contains("2 NUMA nodes"));
    }

    #[test]
    fn thread_counts_stop_at_the_ceiling() {
        let threads = |n: &str| {
            Args::parse(["serve", "--workers", n])
                .unwrap()
                .threads_or("workers", 1)
        };
        assert_eq!(threads("1024"), Ok(MAX_THREADS));
        assert_eq!(threads("0"), Err(CliError::NonPositive("workers")));
        for n in ["1025", "100000", "18446744073709551615"] {
            let e = threads(n).unwrap_err();
            assert_eq!(
                e,
                CliError::Usage(format!(
                    "--workers must be at most {MAX_THREADS} threads, got {n}"
                ))
            );
            assert_eq!(e.exit_code(), EXIT_USAGE, "{n}: {e}");
        }
        assert!(matches!(
            threads("18446744073709551616"),
            Err(CliError::BadValue("workers", _))
        ));
        // Absent, the default stands.
        assert_eq!(
            Args::parse(["serve"]).unwrap().threads_or("workers", 8),
            Ok(8)
        );
    }

    #[test]
    fn exit_codes_split_usage_data_and_io() {
        use mc_model::{CalibrationError, McError};
        assert_eq!(CliError::NoCommand.exit_code(), EXIT_USAGE);
        assert_eq!(CliError::NonPositive("cores").exit_code(), EXIT_USAGE);
        assert_eq!(
            CliError::UnknownPlatform("zzz".into()).exit_code(),
            EXIT_USAGE
        );
        let data = CliError::from(McError::from(CalibrationError::EmptySweep));
        assert_eq!(data.exit_code(), EXIT_INVALID_DATA);
        assert!(!data.is_usage());
        let io = CliError::Data(McError::Io {
            path: "model.txt".into(),
            message: "no such file".into(),
        });
        assert_eq!(io.exit_code(), EXIT_IO);
        // Scheduler errors route through their category: degenerate
        // inputs are data errors, trace-file failures are I/O.
        let sched = CliError::from(mc_sched::SchedError::EmptyQueue);
        assert_eq!(sched.exit_code(), EXIT_INVALID_DATA);
        let sched_io = CliError::Sched(mc_sched::SchedError::Io {
            path: "q.jsonl".into(),
            message: "no such file".into(),
        });
        assert_eq!(sched_io.exit_code(), EXIT_IO);
    }
}
