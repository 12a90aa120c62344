//! Failure-log ingestion and serialization for the `failscope` workspace.
//!
//! Production failure logs arrive as flat files; this crate defines the
//! `failscope-log v1` text format (a small self-describing CSV, see
//! [`write_log`]), parses it back into validated
//! [`failtypes::FailureLog`]s, and provides the operational helpers a
//! center needs before sharing data: keyed node anonymization
//! ([`anonymize_nodes`]) — the paper's own dataset was released in exactly
//! this shape for business-sensitivity reasons — and quick summaries
//! ([`summarize`]).
//!
//! For live monitoring, [`LogTailer`] reads the same format (plus NDJSON
//! body rows) incrementally with follow-mode polling. Record filtering
//! (`--where`, and the `--since`/`--until` sugar that desugars into it)
//! is pushed down into the parser itself: a compiled
//! [`failfilter::CompiledPredicate`] carried in [`ParseOptions::filter`]
//! drops non-matching records during chunked ingest.
//!
//! # Examples
//!
//! ```
//! use failsim::{Simulator, SystemModel};
//!
//! // Generate, serialize, anonymize, reparse.
//! let log = Simulator::new(SystemModel::tsubame2(), 5).generate().unwrap();
//! let anon = faillog::anonymize_nodes(&log, 1234);
//! let text = faillog::to_string(&anon)?;
//! let parsed = faillog::from_str(&text)?;
//! assert_eq!(parsed.len(), 897);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod csv;
mod inflate;
mod input;
mod ops;
mod parallel;
mod stream;

pub use csv::{from_str, read_log, to_string, write_log};
pub use inflate::{crc32, gzip_compress, gzip_decompress, Crc32};
pub use input::{read_input, Compression, InputReader, FSIDX_MAGIC};
pub use ops::{anonymize_nodes, load, load_with, save, summarize, LogSummary};
pub use parallel::{from_str_with, ParseOptions, DEFAULT_CHUNK_BYTES};
pub use stream::{parse_body_rows, parse_ndjson_row, record_to_ndjson, LogTailer, TailProgress};

#[cfg(test)]
mod tests {
    #[test]
    fn errors_are_the_unified_failtypes_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<failtypes::Error>();
        let err = crate::from_str("not a log").unwrap_err();
        assert!(matches!(err, failtypes::Error::Header(_)), "{err}");
    }
}
