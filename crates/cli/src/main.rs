//! `gsb` binary entry point: parse argv, dispatch, print or fail.
//!
//! For supervised invocations (`resume`, `cliques` with a checkpoint
//! directory, `serve`, `router`) SIGINT/SIGTERM handlers are installed
//! that flip the process-global shutdown flag; the pipeline polls it at
//! level barriers and writes a final checkpoint, a server drains, and
//! the process exits with the conventional `128 + signal` code. Other
//! subcommands keep the default kill-me-now behavior — they hold no
//! durable state worth a graceful wind-down.

use std::io::Write;

/// SIGINT/SIGTERM → the global shutdown flag, via a direct `signal(2)`
/// FFI declaration (the workspace deliberately has no libc-style
/// dependency). Storing into an atomic is async-signal-safe.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(sig: i32) {
        gsb_core::supervise::global_signal_flag().store(sig.max(1) as usize, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Graceful shutdown only makes sense when there is durable state to
/// hand over (`resume`, or `cliques` running with a checkpoint dir) or
/// in-flight work to drain (`serve` and `router` answering accepted
/// connections).
fn wants_supervision(argv: &[String]) -> bool {
    match argv.first().map(String::as_str) {
        Some("resume") | Some("serve") | Some("router") => true,
        Some("cliques") => argv.iter().any(|a| a == "--checkpoint-dir"),
        _ => false,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    #[cfg(unix)]
    if wants_supervision(&argv) {
        signals::install();
    }
    #[cfg(not(unix))]
    let _ = wants_supervision(&argv);
    match gsb_cli::run(&argv) {
        Ok(report) => {
            if let Err(e) = emit(std::io::stdout().lock(), &report) {
                let _ = emit(
                    std::io::stderr().lock(),
                    &format!("error: writing output: {e}\n"),
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            let _ = emit(std::io::stderr().lock(), &format!("error: {e}\n"));
            std::process::exit(e.exit_code());
        }
    }
}

/// Write `text` and flush it. A reader that closed its end of the pipe
/// (`gsb query … | head -1`) has had all the output it wants, so a
/// broken pipe ends the output quietly instead of failing the command.
fn emit(mut out: impl Write, text: &str) -> std::io::Result<()> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        done => done,
    }
}

#[cfg(test)]
mod tests {
    use super::wants_supervision;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn long_lived_and_checkpointed_commands_are_supervised() {
        for line in [
            "resume ckpt/",
            "serve idx/ --addr 127.0.0.1:7700",
            "router topo.txt --addr 127.0.0.1:7800",
            "cliques g.txt --checkpoint-dir ckpt/",
        ] {
            assert!(wants_supervision(&argv(line)), "{line}");
        }
        for line in ["", "cliques g.txt", "index g.txt --out idx/", "bench-serve"] {
            assert!(!wants_supervision(&argv(line)), "{line}");
        }
    }
}
