//! `standby`'s command table and the argument parser derived from it.
//!
//! Every subcommand is one [`Command`] in [`COMMANDS`]: its name, a
//! one-line description, its flags and its `run` function. A flag is a
//! value flag (a placeholder such as `N`, a default and one line of
//! help) or a switch. Parsing, the getters' defaults, the unknown-flag
//! and missing-value errors and the whole of `standby --help` come from
//! that table, so a flag is declared in exactly one place.
//!
//! Grammar: `standby <command> [operand]... [--flag value | --flag=value
//! | --switch]...`. A value flag always takes a value, which may not
//! start with `--`; a switch never does.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::str::FromStr;

use simty_bench::{Chaos, Soak, Storm};

use crate::campaign_cmd::{cmd_campaign, cmd_fleet, cmd_sweep};
use crate::commands::*;
use crate::serve_cmd::{cmd_serve, cmd_serve_load};

/// Error produced while parsing or interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseArgsError {
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional {
        /// The offending token.
        token: String,
    },
    /// A flag that requires a value was given without one.
    MissingValue {
        /// The flag name (without dashes).
        flag: String,
    },
    /// A flag value failed to parse.
    InvalidValue {
        /// The flag name.
        flag: String,
        /// The unparsable value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An unknown flag for the active command.
    UnknownFlag {
        /// The flag name.
        flag: String,
    },
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArgsError::UnexpectedPositional { token } => {
                write!(f, "unexpected positional argument `{token}`")
            }
            ParseArgsError::MissingValue { flag } => {
                write!(f, "flag --{flag} requires a value")
            }
            ParseArgsError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for --{flag}: expected {expected}"
            ),
            ParseArgsError::UnknownFlag { flag } => write!(f, "unknown flag --{flag}"),
        }
    }
}

impl Error for ParseArgsError {}

/// One declared flag.
#[derive(Debug)]
pub(crate) struct Flag {
    /// The name, without dashes.
    name: &'static str,
    /// The value's placeholder in help; empty for a switch.
    value: &'static str,
    /// What the getters read when the flag is absent, shown in help;
    /// empty for none.
    default: &'static str,
    /// One line of help.
    help: &'static str,
}

/// One subcommand's declaration.
#[derive(Debug)]
pub(crate) struct Command {
    /// The command word.
    name: &'static str,
    /// Its positional operands as shown in help; a command with none
    /// rejects positional tokens.
    operands: &'static str,
    /// One line of description.
    about: &'static str,
    /// Its flags, in declaration groups (shared groups are declared once).
    flags: &'static [&'static [Flag]],
    /// Runs the command.
    pub(crate) run: fn(&ParsedArgs, &mut dyn Write) -> Result<(), CliError>,
}

/// Declares a flag group, one flag a line: `"name" PLACEHOLDER =
/// "default": "help";` for a value flag (without `= "default"` when it
/// has none), and `"name": "help";` for a switch.
macro_rules! flags {
    ($($name:literal $($value:ident $(= $default:literal)?)?: $help:literal;)*) => {
        &[$(Flag {
            name: $name,
            value: concat!("" $(, stringify!($value))?),
            default: concat!("" $($(, $default)?)?),
            help: $help,
        }),*]
    };
}

/// Declares the command table, one command a block: `"name" ["operands"]
/// run_function [SHARED_GROUP, ...]: "description" { own flags }`, the
/// own flags written as for [`flags!`].
macro_rules! commands {
    ($($name:literal $($operands:literal)? $run:path [$($group:ident),*]: $about:literal {
        $($own:tt)*
    })*) => {
        &[$(Command {
            name: $name,
            operands: concat!("" $(, $operands)?),
            about: $about,
            flags: &[$($group,)* flags! { $($own)* }],
            run: $run,
        }),*]
    };
}

const POLICY: &[Flag] = flags! {
    "policy" P = "simty": "exact|native|native-norealign|simty|simty2|simty4|dursim|fixed:<secs>|doze";
};
const POLICIES: &[Flag] = flags! { "policies" LIST = "native,simty": "comma-separated policies"; };
const SCENARIOS: &[Flag] =
    flags! { "scenarios" LIST = "light,heavy": "comma-separated light|heavy"; };
const BETA: &[Flag] = flags! { "beta" X = "0.96": "grace fraction"; };
const INJECT_PANIC: &[Flag] = flags! { "inject-panic" N: "cell N panics and is quarantined"; };

/// The workload of the single-run commands.
const WORKLOAD: &[Flag] = flags! {
    "scenario" S = "heavy": "light|heavy|synthetic:<n>";
    "workload" FILE: "custom workload spec, see simty_apps::spec (overrides --scenario)";
    "seed" N = "1": "RNG seed";
    "hours" N = "3": "simulated hours";
};

/// The supervised, resumable campaigns: sweep, chaos, soak, storm, fleet.
const HARNESS: &[Flag] = flags! {
    "threads" N = "all cores": "worker threads";
    "json" FILE: "write the campaign document (BENCH_<command>.json schema)";
    "resume" DIR: "journal completed cells to DIR; a rerun restores them";
};
const TELEMETRY: &[Flag] = flags! {
    "progress": "live progress line on stderr (off when stderr is not a terminal)";
    "events" FILE: "append telemetry events to FILE as JSON lines";
};
const CAMPAIGN: &[Flag] = flags! { "seeds" N = "2": "run seeds 1..=N"; };

/// The scheduler service, in `serve` and `serve-load`'s in-process server.
const SERVER: &[Flag] = flags! {
    "workers" N = "4": "server worker threads";
    "queue-depth" N = "64": "bounded work queue; a full queue sheds with 503";
    "policy" P = "simty": "live-scheduler policy: exact|native|simty|dursim|doze";
    "state-dir" DIR: "drain checkpoints live state here; a restart resumes it";
    "telemetry-capacity" N = "1024": "bounded telemetry bus capacity";
};

/// Every subcommand, in `standby --help` order.
pub(crate) const COMMANDS: &[Command] = commands! {
    "run" cmd_run [WORKLOAD, BETA, POLICY]: "simulate one scenario under one policy" {
        "trace" FILE: "write the delivery trace as CSV";
        "waveform" FILE: "write the transient power waveform as CSV";
        "attribution": "print per-app energy attribution";
        "timeline": "print an ASCII wakeup timeline";
        "apps": "print per-app delivery statistics";
        "watchdog": "scan the run for no-sleep wakelock anomalies";
        "json": "emit the report as a JSON object and exit";
    }
    "compare" cmd_compare [WORKLOAD, BETA]: "run every policy on one scenario, side by side" {}
    "diff" cmd_diff [WORKLOAD, BETA]: "per-app comparison of two policies on one workload" {
        "policy-a" P = "native": "the baseline policy (as for --policy)";
        "policy-b" P = "simty": "the policy compared with it";
    }
    "sweep" cmd_sweep [POLICIES, SCENARIOS, HARNESS, INJECT_PANIC, TELEMETRY]:
        "run a policy x scenario x seed x beta grid in parallel" {
        "seeds" N = "3": "run seeds 1..=N";
        "betas" LIST = "0.96": "comma-separated grace fractions";
        "hours" N = "3": "simulated hours per cell";
        "no-obs": "run uninstrumented, rerun instrumented, print the overhead";
    }
    "sweep-beta" cmd_sweep_beta [WORKLOAD]: "sweep the grace fraction under SIMTY" {
        "from" X = "0.75": "first grace fraction";
        "to" X = "0.96": "last grace fraction";
        "steps" N = "5": "grace fractions from --from to --to";
    }
    "chaos" cmd_campaign::<Chaos, _> [POLICIES, SCENARIOS, HARNESS, CAMPAIGN]:
        "fault-injection campaign with online watchdog and invariants" {
        "profiles" LIST = "all": "baseline|jitter|drops|overruns|leaks|flaky|crashes|storm|mixed";
        "hours" N = "1": "simulated hours per cell";
    }
    "soak" cmd_campaign::<Soak, _> [POLICIES, SCENARIOS, HARNESS, CAMPAIGN]:
        "endurance campaign: reboots, corrupt checkpoints, resume checks" {
        "profiles" LIST = "all": "steady|single-reboot|reboot-storm|bitflip|torn-stale";
        "hours" N = "48": "simulated hours per cell";
    }
    "storm" cmd_campaign::<Storm, _> [POLICIES, SCENARIOS, HARNESS, CAMPAIGN]:
        "registration storms against admission quotas and degradation tiers" {
        "profiles" LIST = "all": "quota-storm|drain-saver|drain-critical|storm-and-drain|unprotected";
        "hours" N = "3": "simulated hours per cell";
    }
    "fleet" cmd_fleet [POLICIES, HARNESS, BETA, INJECT_PANIC, TELEMETRY]:
        "sharded, checkpointed, resumable population of N devices" {
        "devices" N = "1000": "device population per policy";
        "shards" N = "4": "supervised cells per policy";
        "seed" N = "1": "fleet seed: each device's mix and RNG seed derive from it";
        "minutes" N = "10": "simulated minutes per device";
        "span-cap" N = "128": "per-device span-ring capacity";
        "audit-cap" N = "64": "per-device audit-ring capacity";
        "ckpt-stride" N = "1000": "devices between mid-shard checkpoints (0: none)";
        "deadline" SECS: "per-shard watchdog deadline; an overrun is quarantined";
    }
    "explain" cmd_explain [WORKLOAD, BETA, POLICY]:
        "audit every placement decision: candidates, Table 1 ranks, verdicts" {
        "jsonl": "one JSON object per decision";
    }
    "metrics" cmd_metrics [WORKLOAD, BETA, POLICY]: "run one scenario, print its metrics" {
        "format" F = "expose": "expose|json|spans";
    }
    "trace" cmd_trace [WORKLOAD, BETA, POLICIES]: "export each policy's spans as a Chrome trace" {
        "out" FILE: "Chrome trace file to write (required)";
        "span-cap" N = "1048576": "per-run span-ring capacity";
        "stages": "add wall-clock stage-profile tracks (non-deterministic)";
    }
    "serve" cmd_serve [SERVER]: "the scheduler as a multi-tenant HTTP service" {
        "addr" A = "127.0.0.1:8377": "bind address";
        "deadline-ms" N = "2000": "per-request deadline (slowloris gets 408)";
        "fault" PROFILE = "none": "network-fault drill: none|torn-read|short-write|stall|disconnect|mixed";
        "seed" N = "1": "fault-drill seed";
        "max-run-minutes" N = "1440": "cap on POST /run simulated minutes";
        "drain-after-ms" N = "0": "drain after N ms (0: run until SIGTERM)";
    }
    "serve-load" cmd_serve_load [SERVER]: "seeded open-loop load generator for serve" {
        "addr" ADDR: "target a running server instead of spawning one";
        "connections" N = "200": "total connections";
        "concurrency" N = "8": "client threads";
        "tenants" N = "4": "distinct tenants";
        "seed" N = "1": "per-connection schedule seed";
        "fault" PROFILE = "none": "client-side fault drill (as for serve)";
        "deadline-ms" N = "2000": "client per-request deadline";
        "server-fault" PROFILE = "none": "in-process server's fault drill";
        "server-seed" N = "1": "in-process server's fault-drill seed";
        "json" FILE: "write the simty-serve/v1 document to FILE, not stdout";
    }
    "bench" "diff OLD.json NEW.json" cmd_bench []:
        "gate between two campaign documents; exits 7 on regression or drift" {}
    "analyze" cmd_analyze []: "offline analysis of a delivery-trace CSV" {
        "trace" FILE: "delivery-trace CSV to analyze (required)";
    }
    "repro" cmd_repro []: "the paper's figures and tables against their bands; exits 7 off band" {}
    "estimate" cmd_estimate [WORKLOAD, BETA]: "closed-form energy envelope of a workload" {}
    "catalog" cmd_catalog []: "print the paper's Table 3 app catalogue" {}
};

impl Command {
    /// The declared flag named `name`.
    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags
            .iter()
            .copied()
            .flatten()
            .find(|f| f.name == name)
    }

    /// Parses the tokens after the command word against this declaration.
    fn parse(&'static self, tokens: &[String]) -> Result<ParsedArgs, ParseArgsError> {
        let mut args = ParsedArgs {
            command: self,
            values: BTreeMap::new(),
            operands: Vec::new(),
            help: false,
        };
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            let Some(body) = token.strip_prefix("--") else {
                if self.operands.is_empty() {
                    return Err(ParseArgsError::UnexpectedPositional {
                        token: token.clone(),
                    });
                }
                args.operands.push(token.clone());
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (body, None),
            };
            if name == "help" && inline.is_none() {
                args.help = true;
                continue;
            }
            let flag = self.flag(name).ok_or_else(|| ParseArgsError::UnknownFlag {
                flag: name.to_owned(),
            })?;
            let value = match (flag.value, inline) {
                ("", None) => "",
                ("", Some(value)) => {
                    return Err(ParseArgsError::InvalidValue {
                        flag: flag.name.to_owned(),
                        value: value.to_owned(),
                        expected: "no value",
                    })
                }
                (_, Some(value)) => value,
                (_, None) => tokens
                    .next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or_else(|| ParseArgsError::MissingValue {
                        flag: flag.name.to_owned(),
                    })?,
            };
            args.values.insert(flag.name, value.to_owned());
        }
        Ok(args)
    }
}

/// Parses a whole command line (without the program name). `None` asks
/// for the usage text: an empty line, or `--help` before or after the
/// command (the rest of the line must still parse).
///
/// # Errors
///
/// An argument error for any other flag before the command word, a
/// usage error for an unknown command, or else the first token that
/// breaks the command's declaration.
pub(crate) fn parse(raw: &[String]) -> Result<Option<ParsedArgs>, CliError> {
    let (name, rest) = match raw.split_first() {
        Some((name, rest)) if name == "--help" => return parse(rest).map(|_| None),
        Some((name, _)) if name.starts_with("--") => {
            let flag = name[2..].to_owned();
            return Err(ParseArgsError::UnknownFlag { flag }.into());
        }
        Some(split) => split,
        None => return Ok(None),
    };
    let command = COMMANDS.iter().find(|c| c.name == name).ok_or_else(|| {
        CliError::Usage(format!("unknown command `{name}` (see `standby --help`)"))
    })?;
    let args = command.parse(rest)?;
    Ok((!args.help).then_some(args))
}

/// A command line parsed against its command's declaration.
#[derive(Debug)]
pub(crate) struct ParsedArgs {
    command: &'static Command,
    /// Given values by flag name; a given switch has an empty value.
    values: BTreeMap<&'static str, String>,
    /// The positional operands, in order.
    pub(crate) operands: Vec<String>,
    help: bool,
}

impl ParsedArgs {
    /// The command these arguments were parsed for.
    pub(crate) fn command(&self) -> &'static Command {
        self.command
    }

    /// Whether the command declares the flag `name`.
    pub(crate) fn takes(&self, name: &str) -> bool {
        self.command.flag(name).is_some()
    }

    /// The value given for the value flag `name`, if any.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.declared(name);
        self.values.get(name).map(String::as_str)
    }

    /// The value given for `name`, or else its declared default.
    pub(crate) fn value(&self, name: &str) -> &str {
        self.get(name).unwrap_or(self.declared(name).default)
    }

    /// Whether the switch `name` was given.
    pub(crate) fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// [`value`](Self::value) as an integer.
    pub(crate) fn u64(&self, name: &str) -> Result<u64, ParseArgsError> {
        typed(name, self.value(name), "an integer")
    }

    /// [`value`](Self::value) as a number.
    pub(crate) fn f64(&self, name: &str) -> Result<f64, ParseArgsError> {
        typed(name, self.value(name), "a number")
    }

    /// The integer given for `name`, if any (its default is not a number).
    pub(crate) fn opt_u64(&self, name: &str) -> Result<Option<u64>, ParseArgsError> {
        self.get(name)
            .map(|v| typed(name, v, "an integer"))
            .transpose()
    }

    /// Reading a flag the command does not declare is a bug in the command.
    fn declared(&self, name: &str) -> &'static Flag {
        self.command
            .flag(name)
            .unwrap_or_else(|| panic!("`{}` reads undeclared flag --{name}", self.command.name))
    }
}

fn typed<T: FromStr>(flag: &str, value: &str, expected: &'static str) -> Result<T, ParseArgsError> {
    value.parse().map_err(|_| ParseArgsError::InvalidValue {
        flag: flag.to_owned(),
        value: value.to_owned(),
        expected,
    })
}

const HEADER: &str = "\
standby — similarity-based wakeup management explorer (SIMTY, DAC'16)

USAGE:
    standby <command> [flags]        (--flag value, --flag=value or --switch)
    standby [<command>] --help

COMMANDS (each with the flags it takes):
";

const FOOTER: &str = "
EXIT CODES (uniform across run/sweep/chaos/soak/storm/fleet):
    0   success
    2   argument or usage error
    3   i/o error
    4   runtime invariant violation(s) detected in a campaign
    5   a checkpoint recovery drill failed (restore error or byte
        divergence between the resumed and straight-through runs)
    6   harness degraded: campaign cells were quarantined (panic or
        deadline overrun), or a --resume journal could not be opened
    7   `bench diff` found a perf regression or schema drift between
        the two campaign documents, or `repro` a paper target outside
        its band
    8   the scheduler service failed: bind error, unusable state
        directory, or corrupted live-scheduler state on restore

Campaign cells run supervised: a panicking or hung cell is quarantined
(status `poisoned`) and the campaign completes without it, exiting with
code 6. With --resume DIR, completed cells are journaled and an
interrupted campaign picks up where it left off, producing a document
byte-identical to an uninterrupted run; fleet shards additionally
checkpoint mid-range every --ckpt-stride devices.
";

/// `standby --help`, derived from [`COMMANDS`].
pub(crate) fn usage() -> String {
    let mut text = String::from(HEADER);
    for c in COMMANDS {
        let usage = format!("{} {}", c.name, c.operands);
        text += &format!("\n{}: {}\n", usage.trim_end(), c.about);
        for f in c.flags.iter().copied().flatten() {
            let name = format!("--{} {}", f.name, f.value);
            let default = if f.default.is_empty() {
                String::new()
            } else {
                format!(" [default: {}]", f.default)
            };
            text += &format!("    {name:<26} {}{default}\n", f.help);
        }
    }
    text + FOOTER
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &[&str]) -> Result<Option<ParsedArgs>, CliError> {
        parse(&line.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    fn args(line: &[&str]) -> ParsedArgs {
        parse_line(line).expect("parses").expect("names a command")
    }

    fn parse_error(line: &[&str]) -> ParseArgsError {
        match parse_line(line) {
            Err(CliError::Args(e)) => e,
            other => panic!("expected an argument error for {line:?}, got {other:?}"),
        }
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let p = args(&["run", "--policy", "simty", "--hours=3", "--timeline"]);
        assert_eq!(p.command().name, "run");
        assert_eq!(p.get("policy"), Some("simty"));
        assert_eq!(p.get("hours"), Some("3"));
        assert!(p.switch("timeline"));
        assert!(!p.switch("attribution"));
    }

    #[test]
    fn flag_before_command_means_no_command() {
        assert!(parse_line(&["--help"]).unwrap().is_none());
        assert!(parse_line(&["run", "--help"]).unwrap().is_none());
    }

    #[test]
    fn adjacent_flags_become_switches() {
        let p = args(&["run", "--timeline", "--policy", "native"]);
        assert!(p.switch("timeline"));
        assert_eq!(p.get("policy"), Some("native"));
    }

    #[test]
    fn positional_after_command_is_rejected() {
        let err = parse_error(&["run", "oops"]);
        assert!(matches!(err, ParseArgsError::UnexpectedPositional { .. }));
    }

    #[test]
    fn typed_getters_parse_and_default() {
        let p = args(&["run", "--seed", "7", "--beta", "0.9"]);
        assert_eq!(p.u64("seed").unwrap(), 7);
        assert_eq!(p.u64("hours").unwrap(), 3);
        assert!((p.f64("beta").unwrap() - 0.9).abs() < 1e-12);
        let p = args(&["run", "--seed", "x"]);
        assert!(matches!(
            p.u64("seed"),
            Err(ParseArgsError::InvalidValue { .. })
        ));
    }

    #[test]
    fn unknown_flags_are_caught() {
        let err = parse_error(&["run", "--polcy", "simty"]);
        assert_eq!(
            err,
            ParseArgsError::UnknownFlag {
                flag: "polcy".into()
            }
        );
        assert!(err.to_string().contains("unknown flag"));
        // Before a command word only `--help` is known.
        let err = parse_error(&["--polcy", "simty", "run"]);
        assert_eq!(
            err,
            ParseArgsError::UnknownFlag {
                flag: "polcy".into()
            }
        );
    }

    #[test]
    fn empty_args_parse() {
        assert!(parse_line(&[]).unwrap().is_none());
    }

    #[test]
    fn help_lists_exactly_each_commands_flags_and_defaults() {
        let help = usage();
        let body = &help[help.find("COMMANDS").unwrap()..help.find("EXIT CODES").unwrap()];
        // A section starts at an unindented line naming its command.
        let sections: Vec<&str> = body.trim_end().split("\n\n").skip(1).collect();
        assert_eq!(sections.len(), COMMANDS.len(), "one section per command");
        for (command, section) in COMMANDS.iter().zip(sections) {
            let mut lines = section.lines();
            let title = lines.next().unwrap();
            assert!(
                title.starts_with(&format!("{} ", command.name))
                    || title.starts_with(&format!("{}:", command.name)),
                "{title}"
            );
            let declared: Vec<&Flag> = command.flags.iter().copied().flatten().collect();
            let listed: Vec<&str> = lines.collect();
            assert_eq!(listed.len(), declared.len(), "{}: {listed:?}", command.name);
            for (flag, line) in declared.iter().zip(&listed) {
                let name = line.split_whitespace().next().unwrap();
                assert_eq!(name, format!("--{}", flag.name), "{}", command.name);
                if !flag.default.is_empty() {
                    assert!(
                        line.ends_with(&format!("[default: {}]", flag.default)),
                        "{line}"
                    );
                }
            }
            let mut names: Vec<&str> = declared.iter().map(|f| f.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                declared.len(),
                "{} declares a flag twice",
                command.name
            );
        }
        // The drift this table removed: sweep-beta takes no --beta, and
        // serve-load lists --telemetry-capacity.
        assert!(
            parse_error(&["sweep-beta", "--beta", "0.5"])
                == ParseArgsError::UnknownFlag {
                    flag: "beta".into()
                }
        );
        assert!(
            args(&["serve-load", "--telemetry-capacity", "8"])
                .u64("telemetry-capacity")
                .unwrap()
                == 8
        );
    }

    #[test]
    fn declared_defaults_match_the_library_defaults() {
        let default = |command: &str, flag: &str| {
            let args = args(&[command]);
            args.value(flag).to_owned()
        };
        let serve = simty_serve::server::ServeConfig::default();
        for command in ["serve", "serve-load"] {
            assert_eq!(default(command, "workers"), serve.workers.to_string());
            assert_eq!(
                default(command, "queue-depth"),
                serve.queue_depth.to_string()
            );
            assert_eq!(default(command, "policy"), serve.policy);
            assert_eq!(
                default(command, "telemetry-capacity"),
                serve.telemetry_capacity.to_string()
            );
        }
        assert_eq!(
            default("serve", "deadline-ms"),
            serve.deadline.as_millis().to_string()
        );
        assert_eq!(
            default("serve", "max-run-minutes"),
            serve.max_run_minutes.to_string()
        );
        let fleet = simty_bench::FleetConfig::new(1);
        assert_eq!(
            default("fleet", "span-cap"),
            fleet.span_capacity.to_string()
        );
        assert_eq!(
            default("fleet", "audit-cap"),
            fleet.audit_capacity.to_string()
        );
    }

    #[test]
    fn the_readme_examples_parse_against_their_declarations() {
        let readme = include_str!("../../../README.md");
        let examples: Vec<&str> = readme
            .lines()
            .filter_map(|line| line.split_once("--bin standby -- ").map(|(_, args)| args))
            .collect();
        assert!(examples.len() >= 18, "{examples:?}");
        for example in examples {
            let line: Vec<&str> = example.split_whitespace().collect();
            match parse_line(&line) {
                Ok(Some(_)) => {}
                other => panic!("README example `{example}` does not parse: {other:?}"),
            }
        }
    }

    /// A token from a small vocabulary of flag-shaped and hostile words:
    /// the command's own flags (bare and `=`-joined), unknown flags, `--`,
    /// bare words, and out-of-range or negative numbers.
    fn token(command: &Command, pick: u64, salt: u64) -> String {
        const WORDS: [&str; 11] = [
            "--",
            "--help",
            "--=",
            "--x=",
            "--bogus",
            "word",
            "",
            "-1",
            "18446744073709551616",
            "99999999999999999999999999",
            "NaN",
        ];
        let flags: Vec<&Flag> = command.flags.iter().copied().flatten().collect();
        let word = WORDS[(salt % WORDS.len() as u64) as usize];
        match (pick % 4, flags.is_empty()) {
            (0, false) => format!("--{}", flags[(salt % flags.len() as u64) as usize].name),
            (1, false) => format!(
                "--{}={word}",
                flags[(salt % flags.len() as u64) as usize].name
            ),
            (2, _) => (salt % 1_000_000).to_string(),
            _ => word.to_owned(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Any token vector, against any command's declaration, parses to
        /// arguments or a typed error, and every typed getter then gives
        /// a value or a typed error: nothing panics. Nothing is run.
        #[test]
        fn argv_never_panics(
            which in proptest::strategy::any::<u64>(),
            picks in proptest::collection::vec(
                (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
                0..12,
            ),
        ) {
            let command = &COMMANDS[(which % COMMANDS.len() as u64) as usize];
            let mut line = vec![command.name.to_owned()];
            line.extend(picks.iter().map(|&(pick, salt)| token(command, pick, salt)));
            if let Ok(Some(args)) = parse(&line) {
                for flag in command.flags.iter().copied().flatten() {
                    if flag.value.is_empty() {
                        args.switch(flag.name);
                    } else {
                        let _ = (args.value(flag.name), args.u64(flag.name), args.f64(flag.name));
                        let _ = args.opt_u64(flag.name);
                    }
                }
            }
        }
    }
}
