//! The command line every `exp_*` binary and `reproduce_all` accepts:
//! `--quick` (only where the experiment has a CI-sized variant) and
//! `--help`. Anything else is refused before the experiment runs, so a
//! mistyped flag never starts a long sweep or overwrites a committed
//! `BENCH_*.json`.

/// What a command line asks an experiment binary to do.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Command {
    /// Run the experiment; `quick` selects its CI-sized variant.
    Run {
        /// `--quick` was given.
        quick: bool,
    },
    /// Print the usage and exit 0 without running anything.
    Help,
    /// An argument the binary does not know: print it with the usage and
    /// exit 2 without running anything.
    Unknown(String),
}

/// Parses the arguments after the program name. `has_quick` says whether
/// the experiment has a `--quick` variant; without one, `--quick` is an
/// unknown argument like any other.
fn parse<S: AsRef<str>>(args: &[S], has_quick: bool) -> Command {
    let mut quick = false;
    for arg in args {
        match arg.as_ref() {
            "--help" => return Command::Help,
            "--quick" if has_quick => quick = true,
            other => return Command::Unknown(other.to_string()),
        }
    }
    Command::Run { quick }
}

/// The usage text of binary `name`, described by `about`.
fn usage(name: &str, about: &str, has_quick: bool) -> String {
    let mut out =
        format!("usage: {name}{}\n\n{about}\n\n", if has_quick { " [--quick]" } else { "" });
    if has_quick {
        out.push_str("  --quick  run the CI-sized variant (smaller workload, CI gates)\n");
    }
    out.push_str("  --help   print this text and exit\n");
    out
}

/// Reads the process's arguments through `parse`. On `--help` prints
/// the usage and exits 0; on an unknown argument prints it and the usage
/// to stderr and exits 2; otherwise returns whether `--quick` was given.
pub fn from_env(about: &str, has_quick: bool) -> bool {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_default();
    let name = std::path::Path::new(&program)
        .file_name()
        .map_or_else(|| "exp".to_string(), |n| n.to_string_lossy().into_owned());
    let rest: Vec<String> = argv.collect();
    match parse(&rest, has_quick) {
        Command::Run { quick } => quick,
        Command::Help => {
            print!("{}", usage(&name, about, has_quick));
            std::process::exit(0);
        }
        Command::Unknown(arg) => {
            eprint!("{name}: unknown argument {arg:?}\n{}", usage(&name, about, has_quick));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_arguments_run_the_full_experiment() {
        assert_eq!(parse::<&str>(&[], true), Command::Run { quick: false });
        assert_eq!(parse::<&str>(&[], false), Command::Run { quick: false });
    }

    #[test]
    fn quick_is_accepted_only_where_the_experiment_has_it() {
        assert_eq!(parse(&["--quick"], true), Command::Run { quick: true });
        assert_eq!(parse(&["--quick", "--quick"], true), Command::Run { quick: true });
        assert_eq!(parse(&["--quick"], false), Command::Unknown("--quick".into()));
    }

    #[test]
    fn help_stops_parsing() {
        assert_eq!(parse(&["--help"], false), Command::Help);
        assert_eq!(parse(&["--quick", "--help"], true), Command::Help);
    }

    #[test]
    fn anything_else_is_refused() {
        for bad in ["-h", "--Quick", "quick", "--quick=1", "", "--help2"] {
            assert_eq!(parse(&[bad], true), Command::Unknown(bad.to_string()), "{bad:?}");
        }
        // The first unknown argument is the one reported, even before
        // `--help`.
        assert_eq!(parse(&["-x", "--help"], true), Command::Unknown("-x".into()));
    }

    #[test]
    fn usage_lists_quick_only_where_it_exists() {
        let with = usage("exp_dst", "E24.", true);
        assert!(with.starts_with("usage: exp_dst [--quick]\n") && with.contains("--quick  "));
        let without = usage("exp_words", "E12.", false);
        assert!(without.starts_with("usage: exp_words\n") && !without.contains("--quick"));
        assert!(with.contains("--help") && without.contains("--help"));
    }
}
