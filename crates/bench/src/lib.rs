//! Benchmark harness for the DAC'14 reproduction.
//!
//! [`tables`] regenerates every table and figure of the paper from live
//! runs on the cost model, printing paper values next to measured ones.
//! Each `src/bin/tableN.rs` binary prints one of them; `src/bin/all.rs`
//! prints the full evaluation (and is what EXPERIMENTS.md records).
//! Self-contained wall-clock micro-benchmarks of the portable tier live
//! in `benches/` (plain timing mains — no external harness, so the
//! workspace builds offline).
//!
//! The table regenerators that report modeled numbers accept
//! `--backend code|direct` (see [`backend_from_args`]): `code` replays
//! every kernel from assembled Thumb-16 machine code through
//! `m0plus::backend` instead of the call-per-instruction direct path.

pub mod campaign;
pub mod shard;
pub mod tables;
pub mod throughput;
pub mod timing;
pub mod traffic;
pub mod workloads;

use m0plus::Backend;

/// Parses `--backend code|direct` (or `--backend=code`) from an
/// argument iterator, defaulting to [`Backend::Direct`].
///
/// # Panics
///
/// Panics with a usage message on an unknown backend name or a
/// trailing `--backend` with no value.
pub fn backend_from_args(args: impl Iterator<Item = String>) -> Backend {
    let mut args = args.peekable();
    let mut backend = Backend::Direct;
    while let Some(arg) = args.next() {
        let value = if arg == "--backend" {
            args.next()
                .unwrap_or_else(|| panic!("--backend requires a value: code|direct"))
        } else if let Some(v) = arg.strip_prefix("--backend=") {
            v.to_string()
        } else {
            continue;
        };
        backend = Backend::parse(&value)
            .unwrap_or_else(|| panic!("unknown backend {value:?}: expected code|direct"));
    }
    backend
}

/// Serialises this crate's unit tests that reset or read the
/// process-wide wTNAF table cache's counters (`koblitz::cache`): they
/// share one test process, and a concurrent reset or lookup would
/// perturb another test's hit/miss counts.
#[cfg(test)]
pub(crate) fn wtnaf_cache_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Backend {
        backend_from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn backend_flag_parses() {
        assert_eq!(parse(&[]), Backend::Direct);
        assert_eq!(parse(&["--backend", "code"]), Backend::Code);
        assert_eq!(parse(&["--backend=direct"]), Backend::Direct);
        assert_eq!(parse(&["other", "--backend", "CODE"]), Backend::Code);
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn backend_flag_rejects_garbage() {
        parse(&["--backend", "jit"]);
    }
}
