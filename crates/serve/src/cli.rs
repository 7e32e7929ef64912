//! Strict command-line flags for the `pictor-serve` and `pictor-load`
//! binaries.
//!
//! Each binary names its valued flags and its switches. [`Args::parse`]
//! checks every argument against those lists: an unknown flag, a valued
//! flag without its value, or (through [`Args::opt`]) a value that does
//! not parse prints the message and the usage to stderr and exits with
//! status 2, before any socket is bound or any swarm runs.

use std::str::FromStr;

/// A checked command line.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Checks the process arguments against `valued` (flags that take the
    /// next argument as their value) and `switches` (flags that stand
    /// alone), each a whitespace-separated list of flag names.
    pub fn parse(usage: &'static str, valued: &str, switches: &str) -> Self {
        let known = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
        let mut args = Args {
            usage,
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            if known(switches, &arg) {
                args.switches.push(arg);
            } else if known(valued, &arg) {
                match it.next() {
                    Some(v) => args.values.push((arg, v)),
                    None => args.fail(&format!("{arg} needs a value")),
                }
            } else {
                args.fail(&format!("unknown argument {arg}"));
            }
        }
        args
    }

    /// The value given for `flag` (the first, when repeated).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as a number, if given.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        let v = self.value(flag)?;
        let parsed = v.parse();
        Some(parsed.unwrap_or_else(|_| self.fail(&format!("{flag} wants a number, got {v}"))))
    }

    /// [`Args::opt`], or `default` when `flag` is absent.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// True when the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Prints `msg` and the usage to stderr and exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }
}
