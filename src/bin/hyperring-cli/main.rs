//! `hyperring-cli` — every experiment of the paper's evaluation, every
//! extension, and a quick look at the model, as subcommands of one
//! binary (run with `--release`).
//!
//! ```console
//! $ hyperring-cli fig15a 20000
//! $ hyperring-cli fig15b --small --trials 3
//! $ hyperring-cli churn crash --n 64 --trials 2
//! $ hyperring-cli analyze --b 16 --d 8 --n 3096 --m 1000
//! ```
//!
//! Each command's arguments are its leading positionals, then `--flag
//! value` pairs and bare switches ([`args`]). A malformed value or an
//! argument the command does not take prints `error: …` and exits 1
//! before any work starts. The checks an experiment makes on its own
//! results (the theorems, `--audit`, the RSS budgets) panic, so a failed
//! check exits non-zero too. Every line for stdout goes through `out!`,
//! so a reader that stops early (`| head`) ends the command quietly, with
//! status 0. Experiments write their tables as CSV under
//! `results/` in the working directory; `--smoke` runs write nothing.
//!
//! `--trials N` runs `N` independent trials fanned across cores, with
//! per-trial seeds from [`trial_seed`](hyperring::harness::trial_seed);
//! trial 0 keeps the base seed, so `--trials 1` is the plain run, and the
//! core count never changes the output. `--trace PATH` writes a JSONL
//! protocol trace (one [`ProtocolEvent`](hyperring::core::ProtocolEvent)
//! per line) of one representative run; simulator traces are
//! byte-identical per seed.

use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

use hyperring::harness::Table;

/// `println!` onto the CLI's stdout, through [`print_line`]: a closed
/// stdout (`hyperring-cli analyze | head -3`) ends the process quietly.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::print_line(format_args!($($arg)*))
    };
}

mod args;
mod churn;
mod extensions;
mod inspect;
mod paper;

use args::Args;

/// A command: reads its arguments, [`Args::finish`]es, then runs.
type Command = fn(Args) -> Result<(), String>;

const COMMANDS: &[(&str, Command)] = &[
    ("fig15a", paper::fig15a),
    ("fig15b", paper::fig15b),
    ("theorem3", paper::theorem3),
    ("theorem4", paper::theorem4),
    ("occupancy", paper::occupancy),
    ("footnote8", paper::footnote8),
    ("ablation_msgsize", paper::ablation_msgsize),
    ("bootstrap", paper::bootstrap),
    ("baseline_consistency", paper::baseline_consistency),
    ("faultsim", extensions::faultsim),
    ("stretch", extensions::stretch),
    ("lookup", extensions::lookup),
    ("scale", extensions::scale),
    ("churn", churn::churn),
    ("analyze", inspect::analyze),
    ("simulate", inspect::simulate),
    ("route", inspect::route),
];

fn usage() -> &'static str {
    "hyperring-cli — hypercube routing with consistency-preserving joins\n\
     \n\
     USAGE:\n\
       hyperring-cli <command> [positional]... [--flag value | --switch]...\n\
     \n\
     THE PAPER'S EVALUATION (each writes CSV under results/):\n\
       fig15a [step]                   Theorem-5 bound of E(J) vs n (Figure 15(a))\n\
       fig15b [--small] [--trials N]   JoinNotiMsg CDF + §5.2 averages (Figure 15(b))\n\
       theorem3 [--trials N]           max CpRstMsg + JoinWaitMsg vs the d + 1 bound\n\
       theorem4 [samples] [--trials N] measured single-join cost vs the closed form\n\
       occupancy [--trials N]          table occupancy vs the closed form\n\
       footnote8 [seeds] [--trials N]  how often SpeNotiMsg is sent\n\
       ablation_msgsize [--full] [--trials N]\n\
                                       §6.2 payload reductions\n\
       bootstrap [--n 256] [--b 16] [--d 8] [--seed 11] [--trials N] [--trace PATH]\n\
                                       §6.1 initialization: sequential, concurrent, staggered\n\
       baseline_consistency [seeds] [--trials N]\n\
                                       optimistic joins vs the paper's protocol\n\
     \n\
     EXTENSIONS:\n\
       faultsim [joiners] [drop_pct] [dup_pct] [--trials N] [--trace PATH]\n\
                                       concurrent joins over a lossy network, retries on\n\
       stretch [n] [--trials N]        routing stretch before/after proximity optimization\n\
       lookup [--sizes 256,1024] [--lookups N] [--keys K] [--zipf A] [--sample S]\n\
              [--min-traffic T] [--seed S] [--paper-topology] [--smoke] [--audit]\n\
                                       lookup storms, paper-faithful vs adaptive tables\n\
       scale [n[,n...]] [--batch B] [--sample-pairs K] [--rss-budget-mib M]\n\
             [--check-rss-budget-mib M] [--smoke]\n\
                                       batched bootstrap at large n: throughput, RSS\n\
       churn waves [--rounds R] [--trials N] [--runtime sim|udp]\n\
       churn crash [--n N] [--crash-pct P] [--trials N] [--runtime sim|udp]\n\
       churn poisson [--n N] [--half-lives S1,S2,..] [--seed S] [--smoke] [--audit]\n\
                     [--runtime sim|udp]\n\
       churn --shrink SEED             minimise a failing trial of the benchmark's churn\n\
     \n\
     A QUICK LOOK:\n\
       analyze    closed-form cost model (Theorems 3-5, occupancy)\n\
                  flags: --b 16 --d 8 --n 3096 --m 1000\n\
       simulate   run n members + m concurrent joins, report stats\n\
                  flags: --b 16 --d 8 --n 512 --m 128 --seed 7 --lookups 0\n\
       route      sample routes over a consistent network\n\
                  flags: --b 16 --d 8 --n 256 --pairs 5 --seed 7\n\
       help       print this text\n"
}

/// Writes one line to stdout. When the reader has gone (`BrokenPipe`)
/// nobody is left to read the rest, so the process exits with status 0
/// there and then; any other write error panics, as `println!` does.
fn print_line(line: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    let written = stdout
        .write_fmt(line)
        .and_then(|()| stdout.write_all(b"\n"));
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Writes `table` as CSV to `path` and says so, or warns that it could not.
fn write_csv(table: &Table, path: &str) {
    match table.write_csv(Path::new(path)) {
        Ok(()) => out!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1);
    let Some(cmd) = words.next() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|(name, _)| *name == cmd) {
        Some((_, run)) => run(Args::new(words.collect())),
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => {
            out!("{}", usage());
            Ok(())
        }
        None => Err(format!("unknown command {cmd:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
