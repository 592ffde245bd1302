//! One strict, table-driven argv parser for every binary: the `rfstudy`
//! subcommands, the `all` suite runner and the twelve harness binaries.
//!
//! A command declares each argument once, as an [`Opt`] (name, metavar or
//! flag, default, help line, value parser) listed in its [`Cmd`] table.
//! Parsing rejects unknown, duplicate and value-less options and stray
//! positionals; `--help`/`-h` asks for the usage, rendered from the same
//! table. There is no `--opt=value` form. A value may start with one `-`,
//! never with `--`. Names without a leading `-` are positionals.

use rf_bpred::PredictorKind;
use rf_core::{ExceptionModel, MachineConfig, SchedPolicy};
use rf_mem::CacheOrg;
use rf_obs::trend::FidelityMode;
use rf_workload::{spec92, BenchmarkProfile};
use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

type Parse<T> = fn(&str) -> Result<T, String>;

/// How an argument takes its value.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// None: a flag.
    Flag,
    /// One value, shown in usage as this placeholder.
    Meta(&'static str),
    /// One of a closed set of spellings, rendered `a|b|c`.
    Choices(fn() -> String),
}

/// An argument as the parser and the usage renderer see it.
#[derive(Debug)]
pub struct Info {
    /// `--name` for an option, an upper-case word for a positional.
    name: &'static str,
    /// How it takes its value.
    value: Value,
    /// One help line.
    help: &'static str,
    /// Raw value used when the argument is absent.
    default: Option<&'static str>,
    /// Whether the command refuses to run without it.
    required: bool,
}

impl Info {
    fn is_option(&self) -> bool {
        self.name.starts_with('-')
    }

    /// `--name VALUE`, `--flag`, or a positional's value.
    fn spelled(&self) -> String {
        let value = match self.value {
            Value::Flag => return self.name.to_owned(),
            Value::Meta(meta) => meta.to_owned(),
            Value::Choices(spellings) => spellings(),
        };
        if self.is_option() {
            format!("{} {value}", self.name)
        } else {
            value
        }
    }
}

/// One declared argument and its typed value parser.
#[derive(Debug)]
pub struct Opt<T: 'static> {
    /// What the parser and the usage renderer see.
    pub info: Info,
    parse: Parse<T>,
}

impl<T> Opt<T> {
    const fn with(name: &'static str, value: Value, help: &'static str, parse: Parse<T>) -> Self {
        Self { info: Info { name, value, help, default: None, required: false }, parse }
    }

    /// An optional argument taking one value, shown as `meta`.
    pub const fn new(
        name: &'static str,
        meta: &'static str,
        help: &'static str,
        parse: Parse<T>,
    ) -> Self {
        Self::with(name, Value::Meta(meta), help, parse)
    }

    /// The same argument, required.
    pub const fn required(mut self) -> Self {
        self.info.required = true;
        self
    }

    /// The same argument, reading as `raw` when absent.
    pub const fn default(mut self, raw: &'static str) -> Self {
        self.info.default = Some(raw);
        self
    }
}

impl<T: Choice> Opt<T> {
    /// An optional argument taking one of `T`'s spellings.
    pub const fn choice(name: &'static str, help: &'static str) -> Self {
        Self::with(name, Value::Choices(spellings::<T>), help, choice::<T>)
    }
}

impl Opt<bool> {
    /// A flag; read it with [`Matches::flag`].
    pub const fn flag(name: &'static str, help: &'static str) -> Self {
        Self::with(name, Value::Flag, help, |_| Ok(true))
    }
}

/// A titled option set several commands accept.
#[derive(Debug)]
pub struct Group {
    /// Shown as `[title]` in synopses and as a section heading.
    pub title: &'static str,
    /// The options.
    pub args: &'static [&'static Info],
}

/// One command's argument table and prose.
#[derive(Debug)]
pub struct Cmd<'a> {
    /// The command line prefix, e.g. `rfstudy run` or `fig3`.
    pub name: &'a str,
    /// Prose printed after the synopsis.
    pub about: &'a str,
    /// The command's own arguments, in synopsis order.
    pub args: &'a [&'a Info],
    /// Shared option sets, accepted after `args`.
    pub groups: &'a [&'a Group],
}

impl<'a> Cmd<'a> {
    fn infos(&self) -> impl Iterator<Item = &'a Info> + '_ {
        self.args.iter().chain(self.groups.iter().flat_map(|g| g.args)).copied()
    }

    /// Checks `argv` against the table; `Ok(None)` means `--help`/`-h`.
    /// An error names the unknown, duplicate or value-less option, the
    /// stray positional, or the missing required argument.
    pub fn parse(&'a self, argv: &[String]) -> Result<Option<Matches<'a>>, String> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut positionals = self.infos().filter(|i| !i.is_option());
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                return Ok(None);
            }
            if !token.starts_with('-') {
                let info =
                    positionals.next().ok_or_else(|| format!("unexpected argument {token:?}"))?;
                given.push((info.name, token.clone()));
                continue;
            }
            let option = self.infos().find(|i| i.is_option() && i.name == token);
            let info = option.ok_or_else(|| format!("unknown option {token:?}"))?;
            if given.iter().any(|(name, _)| *name == info.name) {
                return Err(format!("duplicate option {token}"));
            }
            let value = match info.value {
                Value::Flag => Some(String::new()),
                _ => tokens.next().filter(|v| !v.starts_with("--")).cloned(),
            };
            given.push((info.name, value.ok_or_else(|| format!("{token} requires a value"))?));
        }
        let absent = |i: &&Info| i.required && given.iter().all(|(name, _)| *name != i.name);
        match self.infos().find(absent) {
            Some(i) if i.is_option() => Err(format!("{} requires {}", self.name, i.name)),
            Some(i) => {
                Err(format!("{} requires an {}: {}", self.name, i.name.to_lowercase(), i.spelled()))
            }
            None => Ok(Some(Matches { cmd: self, given })),
        }
    }

    /// The name and every argument, wrapped; `column` is where the
    /// synopsis starts on its first line.
    pub fn synopsis(&self, column: usize) -> String {
        let own = self.args.iter().map(|i| match i.required {
            true => i.spelled(),
            false => format!("[{}]", i.spelled()),
        });
        let groups = self.groups.iter().map(|g| format!("[{}]", g.title));
        let indent = column + self.name.len() + 1;
        wrap(self.name.to_owned(), indent - 1, indent, own.chain(groups))
    }

    /// What `--help` prints: synopsis, prose, then every option.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}\n", self.synopsis(7));
        if !self.about.is_empty() {
            let _ = write!(out, "\n{}\n", self.about);
        }
        if !self.args.is_empty() {
            let _ = write!(out, "\narguments:\n{}", option_lines(self.args));
        }
        for group in self.groups {
            let _ = write!(out, "\n{}:\n{}", group.title, option_lines(group.args));
        }
        out
    }
}

/// Aligned `  --name VALUE   help (default X)` lines.
pub fn option_lines(args: &[&Info]) -> String {
    let mut out = String::new();
    for info in args {
        let left = format!("  {}", info.spelled());
        let column = (left.len() + 1).max(23);
        let default = info.default.map(|d| format!("(default {d})"));
        let words = info.help.split(' ').map(str::to_owned).chain(default);
        out += &wrap(format!("{left:column$}"), column, 24, words);
        out.push('\n');
    }
    out
}

/// Appends `words` to `line` (which ends at `column`), one space apart,
/// breaking before column 79 onto lines indented by `indent`.
fn wrap(
    mut line: String,
    mut column: usize,
    indent: usize,
    words: impl Iterator<Item = String>,
) -> String {
    for word in words {
        if column + 1 + word.len() > 78 && column >= indent {
            let _ = write!(line, "\n{:1$}", "", indent - 1);
            column = indent - 1;
        }
        let _ = write!(line, " {word}");
        column += 1 + word.len();
    }
    line
}

/// The arguments one command line gave, checked against its [`Cmd`].
#[derive(Debug)]
pub struct Matches<'a> {
    cmd: &'a Cmd<'a>,
    given: Vec<(&'static str, String)>,
}

impl Matches<'_> {
    /// `opt`'s value as given, else its default, else `None`; an error
    /// is the value parser's message after the argument and value.
    pub fn get<T>(&self, opt: &Opt<T>) -> Result<Option<T>, String> {
        let info = &opt.info;
        assert!(self.cmd.infos().any(|i| std::ptr::eq(i, info)), "{} not in table", info.name);
        let given = self.given.iter().find(|(name, _)| *name == info.name);
        let Some(raw) = given.map(|(_, v)| v.as_str()).or(info.default) else { return Ok(None) };
        (opt.parse)(raw).map(Some).map_err(|e| format!("{} {raw:?} {e}", info.name))
    }

    /// The value of a required or defaulted `opt`.
    pub fn value<T>(&self, opt: &Opt<T>) -> Result<T, String> {
        Ok(self.get(opt)?.expect("required or defaulted argument"))
    }

    /// Whether the flag `opt` was given.
    pub fn flag(&self, opt: &Opt<bool>) -> bool {
        self.get(opt) == Ok(Some(true))
    }
}

/// Parses this process's arguments against `cmd` and reads them with
/// `read`. On `--help` it prints the usage and returns exit 0; on a usage
/// error, including a value `read` rejects, it prints the message and the
/// usage and returns exit 2. The caller then runs nothing.
pub fn process_args<T>(
    cmd: &Cmd<'_>,
    read: impl FnOnce(&Matches<'_>) -> Result<T, String>,
) -> Result<T, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cmd.parse(&argv).and_then(|m| m.as_ref().map(read).transpose()) {
        Ok(Some(value)) => Ok(value),
        Ok(None) => {
            print!("{}", cmd.usage());
            Err(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprint!("{}: {e}\n\n{}", cmd.name, cmd.usage());
            Err(ExitCode::from(2))
        }
    }
}

/// An enum read from a closed set of spellings, each spelled once by
/// its `Display` impl.
pub trait Choice: Copy + Display + 'static {
    /// What a value names, for error messages.
    const WHAT: &'static str;
    /// Every variant, in usage order.
    const ALL: &'static [Self];
}

/// Implements [`Choice`] for enums whose `Display` spells each variant.
macro_rules! choices {
    ($($ty:ty: $what:literal = [$($variant:ident),+];)+) => {$(
        impl Choice for $ty {
            const WHAT: &'static str = $what;
            const ALL: &'static [Self] = &[$(Self::$variant),+];
        }
    )+};
}

choices! {
    ExceptionModel: "exception model" = [Precise, Imprecise, AlphaHybrid];
    CacheOrg: "cache organisation" = [Perfect, Lockup, LockupFree];
    SchedPolicy: "scheduler policy" = [OldestFirst, YoungestFirst];
    PredictorKind: "predictor" = [Bimodal, Gshare, Combining];
    FidelityMode: "mode" = [Gate, Warn, Off];
}

fn spellings<T: Choice>() -> String {
    T::ALL.iter().map(T::to_string).collect::<Vec<_>>().join("|")
}

/// `a or b`, `a, b, or c`.
fn alternatives<T: Display>(items: &[T]) -> String {
    let (last, rest) = items.split_last().expect("at least two alternatives");
    let rest: Vec<String> = rest.iter().map(T::to_string).collect();
    format!("{}{} or {last}", rest.join(", "), if rest.len() > 1 { "," } else { "" })
}

/// Value parser for a [`Choice`] enum.
pub fn choice<T: Choice>(raw: &str) -> Result<T, String> {
    let found = T::ALL.iter().copied().find(|v| v.to_string() == raw);
    found.ok_or_else(|| format!("is an unknown {} (expected {})", T::WHAT, alternatives(T::ALL)))
}

/// Value parser for a non-negative integer.
pub fn uint<T: FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| "is not a non-negative integer".to_owned())
}

/// Value parser for a positive integer.
pub fn positive<T: FromStr + PartialEq + From<u8>>(raw: &str) -> Result<T, String> {
    uint(raw).ok().filter(|v| *v != T::from(0)).ok_or("is not a positive integer".to_owned())
}

/// Value parser for a physical register count: at least
/// [`MachineConfig::MIN_PHYS_REGS`], below which the renamer deadlocks.
pub fn regs(raw: &str) -> Result<usize, String> {
    let min = MachineConfig::MIN_PHYS_REGS;
    match uint(raw)? {
        n if n < min => Err(format!("is below the minimum of {min} physical registers")),
        n => Ok(n),
    }
}

/// Value parser for a real number.
pub fn number(raw: &str) -> Result<f64, String> {
    raw.parse().map_err(|_| "is not a number".to_owned())
}

/// Value parser for free text (paths, revisions).
pub fn text(raw: &str) -> Result<String, String> {
    Ok(raw.to_owned())
}

/// Value parser for a finite, positive wall-clock budget in seconds.
pub fn seconds(raw: &str) -> Result<Duration, String> {
    let secs = raw.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
    let budget = secs.and_then(|s| Duration::try_from_secs_f64(s).ok());
    budget.ok_or("is not a positive number of seconds".to_owned())
}

/// Value parser for a benchmark name.
pub fn bench(raw: &str) -> Result<BenchmarkProfile, String> {
    spec92::by_name(raw).ok_or_else(|| {
        let names: Vec<String> = spec92::all().into_iter().map(|p| p.name).collect();
        format!("is an unknown benchmark (expected {})", alternatives(&names))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    static NAME: Opt<String> = Opt::new("--name", "S", "a name", text).required();
    static COUNT: Opt<u64> = Opt::new("--count", "N", "how many", uint).default("3");
    static LOUD: Opt<bool> = Opt::flag("--loud", "shout");
    static POS: Opt<u64> = Opt::new("COMMITS", "COMMITS", "a positional", uint);
    static CMD: Cmd<'static> = Cmd {
        name: "demo",
        about: "",
        args: &[&NAME.info, &COUNT.info, &LOUD.info, &POS.info],
        groups: &[],
    };

    fn parse(line: &str) -> Result<Option<Matches<'static>>, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        CMD.parse(&argv)
    }

    #[test]
    fn reads_values_defaults_flags_and_positionals() {
        let m = parse("--name x 7 --loud").unwrap().unwrap();
        assert_eq!(m.value(&NAME).unwrap(), "x");
        assert_eq!(m.value(&COUNT).unwrap(), 3);
        assert!(m.flag(&LOUD));
        assert_eq!(m.get(&POS).unwrap(), Some(7));
        let m = parse("--count 9 --name -x").unwrap().unwrap();
        assert_eq!(m.value(&COUNT).unwrap(), 9);
        assert_eq!(m.value(&NAME).unwrap(), "-x", "a value may start with one dash");
        assert!(!m.flag(&LOUD));
        assert_eq!(m.get(&POS).unwrap(), None);
    }

    #[test]
    fn rejects_every_malformed_shape_naming_the_token() {
        for (line, needle) in [
            ("--name x --bogus", "unknown option \"--bogus\""),
            ("--name x --count 1 --count 2", "duplicate option --count"),
            ("--name x --count", "--count requires a value"),
            ("--name --count 1", "--name requires a value"),
            ("--name x 1 2", "unexpected argument \"2\""),
            ("--count 1", "demo requires --name"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        let m = parse("--name x --count many").unwrap().unwrap();
        assert_eq!(m.get(&COUNT).unwrap_err(), "--count \"many\" is not a non-negative integer");
    }

    #[test]
    fn help_wins_and_usage_renders_the_table() {
        assert!(parse("--help").unwrap().is_none());
        assert!(parse("--name x -h").unwrap().is_none());
        let usage = CMD.usage();
        assert!(
            usage.starts_with("usage: demo --name S [--count N] [--loud] [COMMITS]"),
            "{usage}"
        );
        assert!(usage.contains("  --count N             how many (default 3)\n"), "{usage}");
    }

    #[test]
    fn value_parsers_enforce_their_ranges() {
        assert_eq!(positive::<usize>("0").unwrap_err(), "is not a positive integer");
        assert_eq!(positive::<usize>("4"), Ok(4));
        assert!(regs("31").unwrap_err().contains("minimum of 32 physical registers"));
        assert_eq!(regs("32"), Ok(32));
        for bad in ["0", "-2", "nan", "inf", "abc", "1e300"] {
            assert!(seconds(bad).is_err(), "{bad}");
        }
        assert_eq!(seconds("1.5"), Ok(Duration::from_millis(1500)));
        assert!(bench("nope").unwrap_err().contains("compress, doduc"));
        assert_eq!(choice::<CacheOrg>("lockup-free"), Ok(CacheOrg::LockupFree));
        let err = choice::<SchedPolicy>("random").unwrap_err();
        assert_eq!(err, "is an unknown scheduler policy (expected oldest-first or youngest-first)");
    }
}
