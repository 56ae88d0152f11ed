//! The `pxml-server` binary: parse flags, serve until stdin closes (or a
//! `quit` line arrives), then shut down gracefully — draining every
//! tenant's group-commit windows before exiting. See README "Serving" for
//! the runbook.

use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;

use pxml_server::{Server, ServerConfig};
use pxml_store::CommitPolicy;

const USAGE: &str = "usage: pxml-server --root <dir> [--addr <host:port>] [--max-tenants <n>]\n\
    [--tenant-inflight <n>] [--global-inflight <n>] [--admission-timeout-ms <ms>] [--grouped]\n\
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
            "--max-tenants" => parse_usize(&mut value, "--max-tenants", &mut config.max_tenants),
            "--tenant-inflight" => {
                parse_usize(&mut value, "--tenant-inflight", &mut config.tenant_inflight)
            }
            "--global-inflight" => {
                parse_usize(&mut value, "--global-inflight", &mut config.global_inflight)
            }
            "--admission-timeout-ms" => value("--admission-timeout-ms").and_then(|v| {
                v.parse::<u64>()
                    .map(|ms| config.admission_timeout = Duration::from_millis(ms))
                    .map_err(|_| format!("bad --admission-timeout-ms value `{v}`"))
            }),
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

fn parse_usize(
    value: &mut impl FnMut(&str) -> Result<String, String>,
    flag: &str,
    slot: &mut usize,
) -> Result<(), String> {
    let v = value(flag)?;
    v.parse::<usize>()
        .map(|parsed| *slot = parsed)
        .map_err(|_| format!("bad {flag} value `{v}`"))
}
