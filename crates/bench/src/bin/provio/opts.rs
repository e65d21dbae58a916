//! The option table every subcommand is declared through, and the one
//! exit contract they share.
//!
//! A subcommand writes each option once — flag, help line, and a [`Slot`]
//! that says what the value must be and borrows the variable it lands in,
//! already holding the default. The parser, `--help` and the message that
//! accompanies exit status 2 are all read off that table, so a value
//! outside its range is refused before the subcommand has built anything.

/// How a subcommand ended. `main` alone turns this into the process exit
/// status: 0 pass, 1 fail, 2 bad arguments.
pub enum Outcome {
    Pass,
    Fail,
    /// The arguments were refused; the text says which and why.
    Usage(String),
}

/// What follows a flag on the command line, and where the checked value
/// goes. `T` is what the subcommand's [`Slot::Choice`] words stand for
/// (`()` for a table without one).
pub enum Slot<'a, T: 'static> {
    /// Nothing: the flag's presence is the value.
    Switch(&'a mut bool),
    /// An integer no smaller than the minimum given.
    U32(u32, &'a mut u32),
    U64(&'a mut u64),
    Usize(&'a mut usize),
    /// A probability in `[0, 1)`.
    Prob(&'a mut f64),
    /// Any text, shown in help under the given metavar.
    Text(&'static str, &'a mut String),
    /// [`Slot::Text`] for a value that is absent unless given.
    MaybeText(&'static str, &'a mut Option<String>),
    /// One word of a closed set; the variable holds the chosen table row.
    Choice(&'static [(&'static str, T)], &'a mut (&'static str, T)),
}

/// One option: its flag, its help line, its slot.
pub struct Opt<'a, T: 'static>(pub &'static str, pub &'static str, pub Slot<'a, T>);

impl<T: Copy> Slot<'_, T> {
    /// Take this option's value off `argv`, check it and store it; `None`
    /// when the value is missing or refused.
    fn take(&mut self, argv: &mut impl Iterator<Item = String>) -> Option<()> {
        match self {
            Slot::Switch(on) => **on = true,
            Slot::U32(min, n) => **n = argv.next()?.parse().ok().filter(|v| v >= &*min)?,
            Slot::U64(n) => **n = argv.next()?.parse().ok()?,
            Slot::Usize(n) => **n = argv.next()?.parse().ok()?,
            Slot::Prob(p) => **p = argv.next()?.parse().ok().filter(|v| (0.0..1.0).contains(v))?,
            Slot::Text(_, text) => **text = argv.next()?,
            Slot::MaybeText(_, text) => **text = Some(argv.next()?),
            Slot::Choice(rows, chosen) => {
                let word = argv.next()?;
                **chosen = *rows.iter().find(|(known, _)| *known == word)?;
            }
        }
        Some(())
    }

    /// The placeholder help shows after the flag, what a value must be,
    /// and the value held now — the default, when help asks.
    fn describe(&self) -> (String, String, String) {
        let int = |min: u64, max: u64, now: String| ("N".into(), format!("an integer in {min}..={max}"), now);
        match self {
            Slot::Switch(_) => Default::default(),
            Slot::U32(min, n) => int(u64::from(*min), u64::from(u32::MAX), n.to_string()),
            Slot::U64(n) => int(0, u64::MAX, n.to_string()),
            Slot::Usize(n) => int(0, usize::MAX as u64, n.to_string()),
            Slot::Prob(p) => ("P".into(), "a probability in [0, 1)".into(), p.to_string()),
            Slot::Text(metavar, text) => (metavar.to_string(), "any text".into(), text.to_string()),
            Slot::MaybeText(metavar, text) => {
                (metavar.to_string(), "any text".into(), text.as_deref().unwrap_or("none").into())
            }
            Slot::Choice(rows, (word, _)) => {
                let words = rows.iter().map(|(w, _)| *w).collect::<Vec<_>>().join("|");
                ("WORD".into(), format!("one of {words}"), word.to_string())
            }
        }
    }
}

/// Parse `argv` into the variables `opts` borrows; bare words go to `words`
/// (metavar, destination) when the subcommand takes any. `None` means go
/// ahead; otherwise the subcommand is over: `--help` printed the table and
/// passes, an argument the table does not admit is a usage error.
pub fn parse<T: Copy>(
    name: &str,
    about: &str,
    opts: &mut [Opt<'_, T>],
    mut words: Option<(&str, &mut Vec<String>)>,
    argv: Vec<String>,
) -> Option<Outcome> {
    let refuse = |what: String| Some(Outcome::Usage(format!("{what} (try provio {name} --help)")));
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        let bare = words.map_or(String::new(), |(metavar, _)| format!(" [{metavar}]"));
        println!("provio {name} — {about}\nusage: provio {name} [options]{bare}");
        for Opt(flag, help, slot) in opts.iter() {
            let (metavar, accepts, default) = slot.describe();
            let value = if metavar.is_empty() { String::new() } else { format!(" ({accepts}; default {default})") };
            println!("  {:<18} {help}{value}", format!("{flag} {metavar}"));
        }
        return Some(Outcome::Pass);
    }
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match (opts.iter_mut().find(|opt| opt.0 == arg), &mut words) {
            (Some(Opt(flag, _, slot)), _) => {
                if slot.take(&mut argv).is_none() {
                    return refuse(format!("bad or missing value for {flag}: expected {}", slot.describe().1));
                }
            }
            (None, Some((_, bare))) if !arg.starts_with("--") => bare.push(arg),
            (None, _) => return refuse(format!("unknown argument '{arg}'")),
        }
    }
    None
}
