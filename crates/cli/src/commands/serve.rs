//! `failctl serve`: run `faild`, the long-lived query server.

use std::io::Write as _;

use failapi::QueryEngine;
use failserver::{Endpoint, ServerConfig};
use failtypes::{Error, Result};

use crate::args::ParsedArgs;

/// Resolves the listening endpoint from `--socket`/`--listen`.
pub(crate) fn endpoint_from(args: &ParsedArgs, flag: &str) -> Result<Endpoint> {
    match (args.flag("socket"), args.flag(flag)) {
        (Some(_), Some(_)) => Err(Error::args(format!(
            "pass either --socket or --{flag}, not both"
        ))),
        (Some(path), None) => Ok(Endpoint::unix(path)),
        (None, Some(addr)) => Ok(Endpoint::tcp(addr)),
        (None, None) => Err(Error::args(format!(
            "{} needs --socket PATH or --{flag} ADDR",
            args.command
        ))),
    }
}

/// `failctl serve`.
///
/// Blocks until a client sends the protocol's `shutdown` command, then
/// drains in-flight handlers, persists `.fsidx` snapshots for every log
/// the engine cold-parsed, and returns the run's summary. The
/// `{"v":1,"ready":true,...}` line is printed to stdout the moment the
/// socket is bound so scripts can wait for it before connecting.
pub fn serve(args: &ParsedArgs) -> Result<String> {
    args.reject_unknown_flags(&["socket", "listen", "max-inflight", "cache-bytes"])?;
    let endpoint = endpoint_from(args, "listen")?;
    let max_inflight: usize = args.flag_or("max-inflight", 4usize)?;
    if max_inflight == 0 {
        return Err(Error::args("--max-inflight must be at least 1"));
    }
    // `--cache-bytes 0` disables render caching entirely (every query
    // re-renders); the default is a 64 MiB LRU budget.
    let cache_bytes: usize = args.flag_or("cache-bytes", failapi::DEFAULT_CACHE_BYTES)?;
    let summary = failserver::serve(
        ServerConfig {
            endpoint,
            max_inflight,
        },
        QueryEngine::with_cache_bytes(cache_bytes),
        |bound| {
            println!("{}", failserver::ready_line(bound));
            let _ = std::io::stdout().flush();
        },
    )?;
    Ok(format!(
        "faild: served {} requests over {} connections, persisted {} snapshots\n",
        summary.requests, summary.connections, summary.snapshots_persisted
    ))
}
