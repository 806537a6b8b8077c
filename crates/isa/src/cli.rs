//! Standard-output plumbing shared by the workspace's command-line
//! tools.
//!
//! `println!` panics when stdout is a pipe whose reader has gone away
//! (`pbtrace dump g.pbt | head -1`), and the panic exits with status
//! 101. The [`out!`](crate::out) and [`outln!`](crate::outln) macros
//! write through [`write_stdout`] instead, which treats a closed pipe as
//! the reader saying "enough": the process exits quietly with status 0,
//! the way `head`'s upstream is expected to stop. Any other write error
//! is reported on stderr and exits with status 1.

use std::fmt;
use std::io::{self, Write};

/// Writes `args` to stdout. On a broken pipe the process exits quietly
/// with status 0; on any other I/O error it reports the error and exits
/// with status 1. Never panics.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` that ends the program quietly when stdout's reader has
/// closed the pipe (see [`write_stdout`]).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(::std::format_args!($($arg)*))
    };
}

/// `println!` that ends the program quietly when stdout's reader has
/// closed the pipe (see [`write_stdout`]).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(::std::format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}
