//! Minimal, dependency-free argument parsing for `tmpctl`.
//!
//! Hand-rolled (the workspace's external-crate budget is documented in
//! DESIGN.md §6): subcommand + `--flag value` pairs + `--switch` booleans,
//! with typed accessors and helpful errors. A flag the command does not
//! take and a value outside what a flag accepts are errors, never a
//! silent default.

/// A parsed command line: subcommand plus options, in the order given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    pub command: String,
    options: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Parse errors, rendered to the user as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// `--flag` given with no value where one is required.
    MissingValue(String),
    /// Positional argument where none is accepted.
    UnexpectedPositional(String),
    /// A value failed to parse or is out of range.
    BadValue {
        flag: String,
        value: String,
        expected: String,
    },
    /// A flag the command does not take.
    UnknownFlag {
        command: String,
        flag: String,
        value: Option<String>,
        accepted: Vec<String>,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no subcommand given (try `tmpctl help`)"),
            ArgError::MissingValue(flag) => write!(f, "--{flag} requires a value"),
            ArgError::UnexpectedPositional(arg) => {
                write!(f, "unexpected positional argument {arg:?}")
            }
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag}: {value:?} is not {expected}"),
            ArgError::UnknownFlag {
                command,
                flag,
                value,
                accepted,
            } => {
                write!(f, "`{command}` takes no --{flag}")?;
                if let Some(v) = value {
                    write!(f, " (given {v:?})")?;
                }
                if accepted.is_empty() {
                    write!(f, "; it takes no flags")
                } else {
                    write!(f, "; it takes --{}", accepted.join(", --"))
                }
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that take no value.
const SWITCHES: [&str; 5] = ["thp", "pebs", "csv", "json", "help"];

/// Parse `args` (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, ArgError> {
    let mut iter = args.into_iter().peekable();
    let command = iter.next().ok_or(ArgError::NoCommand)?;
    if command.starts_with('-') {
        return Err(ArgError::NoCommand);
    }
    let mut options = Vec::new();
    let mut switches = Vec::new();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(ArgError::UnexpectedPositional(arg));
        };
        if let Some((k, v)) = name.split_once('=') {
            options.push((k.to_string(), v.to_string()));
        } else if SWITCHES.contains(&name) {
            switches.push(name.to_string());
        } else {
            let value = iter
                .next()
                .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
            options.push((name.to_string(), value));
        }
    }
    Ok(Parsed {
        command,
        options,
        switches,
    })
}

impl Parsed {
    /// String option (the last one, when a flag is repeated).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Refuse the first option or switch not in `accepted`.
    pub fn only(&self, accepted: &[&str]) -> Result<(), ArgError> {
        let given = self
            .options
            .iter()
            .map(|(k, v)| (k, Some(v)))
            .chain(self.switches.iter().map(|k| (k, None)));
        for (flag, value) in given {
            if !accepted.contains(&flag.as_str()) {
                return Err(ArgError::UnknownFlag {
                    command: self.command.clone(),
                    flag: flag.clone(),
                    value: value.cloned(),
                    accepted: accepted.iter().map(|a| a.to_string()).collect(),
                });
            }
        }
        Ok(())
    }

    /// Boolean switch.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Typed option with a default.
    pub fn get_u64(&self, flag: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| bad(flag, v, "an integer")),
        }
    }

    /// Integer option that must be at least 1 and fit in `T`, with a
    /// default.
    pub fn get_positive<T: TryFrom<u64>>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        let Some(v) = self.get(flag) else {
            return Ok(default);
        };
        let n = v
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| bad(flag, v, "a positive integer"))?;
        T::try_from(n).map_err(|_| {
            let ty = std::any::type_name::<T>();
            bad(flag, v, &format!("a positive integer that fits in {ty}"))
        })
    }

    /// Comma-separated list of integers that must each be at least 1.
    pub fn get_positive_list(&self, flag: &str) -> Result<Option<Vec<u32>>, ArgError> {
        let Some(v) = self.get(flag) else {
            return Ok(None);
        };
        v.split(',')
            .map(|s| s.trim().parse().ok().filter(|&n| n >= 1))
            .collect::<Option<Vec<u32>>>()
            .map(Some)
            .ok_or_else(|| bad(flag, v, "a comma-separated list of positive integers"))
    }

    /// One of `choices`; the first is the default.
    pub fn get_choice(
        &self,
        flag: &str,
        choices: &[&'static str],
    ) -> Result<&'static str, ArgError> {
        match self.get(flag) {
            None => Ok(choices[0]),
            Some(v) => choices
                .iter()
                .find(|&&c| c == v)
                .copied()
                .ok_or_else(|| bad(flag, v, &format!("one of {}", choices.join(", ")))),
        }
    }
}

fn bad(flag: &str, value: &str, expected: &str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Parsed, ArgError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let parsed = p(&["profile", "--workload", "gups", "--epochs", "5"]).unwrap();
        assert_eq!(parsed.command, "profile");
        assert_eq!(parsed.get("workload"), Some("gups"));
        assert_eq!(parsed.get_u64("epochs", 0).unwrap(), 5);
    }

    #[test]
    fn equals_form_works() {
        let parsed = p(&["profile", "--rate=8"]).unwrap();
        assert_eq!(parsed.get_u64("rate", 4).unwrap(), 8);
    }

    #[test]
    fn switches_need_no_value() {
        let parsed = p(&["profile", "--thp", "--workload", "gups"]).unwrap();
        assert!(parsed.switch("thp"));
        assert!(!parsed.switch("pebs"));
        assert_eq!(parsed.get("workload"), Some("gups"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(p(&[]), Err(ArgError::NoCommand));
        assert_eq!(p(&["--workload"]), Err(ArgError::NoCommand));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            p(&["profile", "--workload"]),
            Err(ArgError::MissingValue("workload".into()))
        );
    }

    #[test]
    fn positional_rejected() {
        assert!(matches!(
            p(&["profile", "gups"]),
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn bad_number_reports_flag_and_value() {
        let err = p(&["profile", "--epochs", "many"])
            .unwrap()
            .get_u64("epochs", 1)
            .unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
        assert!(err.to_string().contains("epochs"));
        assert!(err.to_string().contains("many"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let parsed = p(&["profile"]).unwrap();
        assert_eq!(parsed.get_u64("rate", 4).unwrap(), 4);
    }
}
