//! The `pxml-server` binary: parse flags, serve until stdin closes (or a
//! `quit` line arrives), then shut down gracefully — draining every
//! tenant's group-commit windows before exiting. See README "Serving" for
//! the runbook.

use std::io::BufRead;
use std::num::{NonZeroU32, NonZeroU64};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use pxml_server::{Server, ServerConfig};
use pxml_store::CommitPolicy;

const USAGE: &str = "usage: pxml-server --root <dir> [--addr <host:port>] [--max-tenants <n>]\n\
    [--tenant-inflight <n>] [--global-inflight <n>] [--admission-timeout-ms <ms>]\n\
    [--idle-timeout-ms <ms>] [--max-frame-bytes <n>] [--grouped]\n\
\n\
Serves the probabilistic XML warehouse over the length-prefixed wire\n\
protocol (README \"Serving\"). Runs until stdin reaches EOF or reads a\n\
`quit` line, then drains group-commit windows and exits.";

fn main() -> ExitCode {
    let mut config = ServerConfig::new("pxml-data");
    config.addr = "127.0.0.1:7878".to_string();
    let mut root_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "--root" => value("--root").map(|v| {
                config.root = v.into();
                root_set = true;
            }),
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--max-tenants" => parse(&mut value, &arg).map(|n| config.max_tenants = n),
            "--tenant-inflight" => parse(&mut value, &arg).map(|n| config.tenant_inflight = n),
            "--global-inflight" => parse(&mut value, &arg).map(|n| config.global_inflight = n),
            "--admission-timeout-ms" => parse(&mut value, &arg)
                .map(|ms| config.admission_timeout = Duration::from_millis(ms)),
            // Zero is refused for these two: a zero socket timeout is not
            // accepted by the OS (the deadline would silently be off), and a
            // zero frame cap refuses every request.
            "--idle-timeout-ms" => parse(&mut value, &arg)
                .map(|ms: NonZeroU64| config.idle_timeout = Duration::from_millis(ms.get())),
            "--max-frame-bytes" => {
                parse(&mut value, &arg).map(|n: NonZeroU32| config.max_frame_bytes = n.get())
            }
            "--grouped" => {
                config.session.commit = CommitPolicy::grouped();
                Ok(())
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    if !root_set {
        eprintln!("--root is required\n\n{USAGE}");
        return ExitCode::FAILURE;
    }

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("pxml-server: failed to start: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts scrape this line for the resolved (possibly ephemeral) port.
    println!("pxml-server listening on {}", server.local_addr());

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    println!("pxml-server draining and shutting down");
    server.shutdown();
    ExitCode::SUCCESS
}

/// The value after `flag`, parsed.
fn parse<T: FromStr>(
    value: &mut impl FnMut(&str) -> Result<String, String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(flag)?;
    v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
}
