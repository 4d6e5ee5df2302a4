//! The one flag table behind every command line in the workspace.
//!
//! A command declares its flags as [`Flag`]s — a name, an optional metavar
//! and a setter. `parse` fetches values, parses integers with [`int`],
//! rejects unknown flags and returns the positionals; `synopsis` renders
//! the same table as usage text. Bench binaries call [`parse_env_or_exit`].

use crate::CliError;

/// Column [`wrap`] never passes.
const WIDTH: usize = 80;

type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), CliError> + 'a>;

/// One command-line flag.
pub struct Flag<'a> {
    /// The flag as typed, e.g. `--tenants`.
    pub(crate) name: &'static str,
    /// The value's placeholder in usage text; `None` for a switch.
    pub(crate) metavar: Option<&'static str>,
    /// Whether the value is parsed by [`int`].
    pub(crate) integer: bool,
    set: Setter<'a>,
}

impl<'a> Flag<'a> {
    /// A switch that sets `target`.
    pub fn switch(name: &'static str, target: &'a mut bool) -> Self {
        Self::action(name, move || *target = true)
    }

    /// A switch that runs `action` each time it is given.
    pub fn action(name: &'static str, mut action: impl FnMut() + 'a) -> Self {
        Self {
            name,
            metavar: None,
            integer: false,
            set: Box::new(move |_| {
                action();
                Ok(())
            }),
        }
    }

    /// An integer-valued flag (decimal or `0x` hex, see [`int`]).
    pub fn int<T: TryFrom<u64>>(
        name: &'static str,
        metavar: &'static str,
        target: &'a mut T,
    ) -> Self {
        let mut flag = Self::value(name, metavar, move |text| int(text).map(|n| *target = n));
        flag.integer = true;
        flag
    }

    /// A flag whose value is stored as given: a `String`, a `PathBuf`, or
    /// an `Option` of either.
    pub fn text<T: From<String>>(
        name: &'static str,
        metavar: &'static str,
        target: &'a mut T,
    ) -> Self {
        Self::value(name, metavar, move |text| {
            *target = T::from(text.to_owned());
            Ok(())
        })
    }

    /// A flag whose value goes through `set`, which may reject it.
    pub fn value(
        name: &'static str,
        metavar: &'static str,
        set: impl FnMut(&str) -> Result<(), CliError> + 'a,
    ) -> Self {
        Self {
            name,
            metavar: Some(metavar),
            integer: false,
            set: Box::new(set),
        }
    }
}

/// Parses an unsigned integer in decimal or `0x` hex into any integer type
/// it fits.
///
/// # Errors
///
/// Names the text when it is not such an integer.
pub fn int<T: TryFrom<u64>>(text: &str) -> Result<T, CliError> {
    let value = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    value
        .ok()
        .and_then(|value| T::try_from(value).ok())
        .ok_or_else(|| format!("invalid integer `{text}` (decimal or 0x hex)"))
}

/// Applies every `--flag` in `args` through `flags` and returns the other
/// arguments (the positionals) in order. A flag's value is the next
/// argument, whatever it looks like.
///
/// # Errors
///
/// An unknown flag, a missing value, or a value its setter rejects.
pub(crate) fn parse(args: &[String], flags: &mut [Flag<'_>]) -> Result<Vec<String>, CliError> {
    let mut positionals = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positionals.push(arg.clone());
            continue;
        }
        let flag = flags
            .iter_mut()
            .find(|flag| flag.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let value = match flag.metavar {
            Some(_) => args
                .next()
                .ok_or_else(|| format!("`{arg}` needs a value"))?,
            None => "",
        };
        (flag.set)(value).map_err(|err| format!("`{arg}`: {err}"))?;
    }
    Ok(positionals)
}

/// [`parse`] for a command line that takes flags only.
///
/// # Errors
///
/// As [`parse`], and any positional argument.
pub(crate) fn parse_flags(args: &[String], flags: &mut [Flag<'_>]) -> Result<(), CliError> {
    match parse(args, flags)?.first() {
        Some(arg) => Err(format!("unexpected argument `{arg}`")),
        None => Ok(()),
    }
}

/// Renders `lead` followed by one `[--name METAVAR]` per flag, wrapped
/// before column 80 with continuation lines aligned under the first flag.
#[must_use]
pub(crate) fn synopsis(lead: &str, flags: &[Flag<'_>]) -> String {
    let mut out = lead.to_owned();
    let items = flags.iter().map(|flag| match flag.metavar {
        Some(metavar) => format!("[{} {metavar}]", flag.name),
        None => format!("[{}]", flag.name),
    });
    wrap(&mut out, lead.len() + 1, items);
    out
}

/// Appends `items` to the last line of `out` from column `indent` (on a new
/// line if `out` already reaches it), one space apart, starting a new line
/// indented to `indent` wherever an item would pass column 80.
pub(crate) fn wrap(out: &mut String, indent: usize, items: impl Iterator<Item = String>) {
    let mut column = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
    for (i, item) in items.enumerate() {
        if column >= indent && (i == 0 || column + 1 + item.len() > WIDTH) {
            out.push('\n');
            column = 0;
        }
        let gap = if column < indent { indent - column } else { 1 };
        out.push_str(&" ".repeat(gap));
        out.push_str(&item);
        column += gap + item.len();
    }
}

/// Parses a bench binary's command line (flags only) through `flags` and
/// returns its usage text — the `usage: bin [..]` synopsis, then `help` —
/// for the caller's own checks.
///
/// On a usage error, prints it with that text and exits 2, so a typo never
/// starts a run (or rewrites a committed artifact).
pub fn parse_env_or_exit(bin: &str, flags: &mut [Flag<'_>], help: &str) -> String {
    let usage = synopsis(&format!("usage: {bin}"), flags) + help;
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(err) = parse_flags(&args, flags) {
        usage_error(&err, &usage);
    }
    usage
}

/// Prints `error` and `usage` to stderr and exits 2, the bench binaries'
/// usage-error status.
pub fn usage_error(error: &str, usage: &str) -> ! {
    eprintln!("{error}\n{usage}");
    std::process::exit(2)
}

/// Owned arguments, for tests.
#[cfg(test)]
pub(crate) fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| (*a).to_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_decimal_or_hex_and_must_fit() {
        assert_eq!(int::<u64>("3237998080"), Ok(0xC0FF_EE00));
        assert_eq!(int::<u64>("0xc0ffee00"), Ok(3_237_998_080));
        assert_eq!(int::<usize>("0x10"), Ok(16));
        assert!(int::<u8>("256").is_err());
        assert!(int::<u64>("lots").is_err());
        assert!(int::<u64>("-1").is_err());
        assert!(int::<u64>("0x").is_err());
    }

    #[test]
    fn parse_applies_flags_and_returns_positionals() {
        let (mut n, mut on, mut name) = (0u64, false, None::<String>);
        let positionals = parse(
            &args(&["a", "--n", "0x20", "b", "--on", "--name", "--on"]),
            &mut [
                Flag::int("--n", "N", &mut n),
                Flag::switch("--on", &mut on),
                Flag::text("--name", "NAME", &mut name),
            ],
        )
        .unwrap();
        assert_eq!(positionals, args(&["a", "b"]));
        assert_eq!((n, on, name.as_deref()), (32, true, Some("--on")));

        let mut table = [Flag::int("--n", "N", &mut n)];
        let mut err = |list: &[&str]| parse(&args(list), &mut table).unwrap_err();
        assert_eq!(err(&["--n"]), "`--n` needs a value");
        assert_eq!(err(&["--m"]), "unknown flag `--m`");
        assert!(err(&["--n", "lots"]).starts_with("`--n`: invalid integer"));
        let stray = parse_flags(&args(&["x"]), &mut table);
        assert_eq!(stray, Err("unexpected argument `x`".to_owned()));
    }
}
