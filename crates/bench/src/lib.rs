//! Benchmark harness for the DAC'14 reproduction.
//!
//! [`tables`] regenerates every table and figure of the paper from live
//! runs on the cost model, printing paper values next to measured ones.
//! Each `src/bin/tableN.rs` binary prints one of them; `src/bin/all.rs`
//! prints the full evaluation (and is what EXPERIMENTS.md records).
//!
//! Machine code is a check, not a second way to compute the numbers:
//! [`tables::table5`] prints the kernels' flash footprints from a
//! capture session (`gf2m::modeled::ModeledField::start_capture`),
//! which also replays every kernel of a full kP and kG from assembled
//! Thumb-16 and asserts bit-identical state; a unit test does the same
//! for every measured column of [`tables::table6`].

pub mod campaign;
pub mod report;
pub mod shard;
pub mod tables;
pub mod throughput;
pub mod traffic;
pub mod workloads;

use m0plus::TargetSpec;

/// Looks up a `--target NAME` value in the [`m0plus::target`] registry.
///
/// # Panics
///
/// Panics with the registered names on an unknown target.
pub fn target_by_name(name: &str) -> &'static TargetSpec {
    m0plus::target::by_name(name).unwrap_or_else(|| {
        let known: Vec<&str> = m0plus::target::registry()
            .iter()
            .map(|t| t.name())
            .collect();
        panic!("unknown target {name:?}: expected one of {known:?}")
    })
}

/// Serialises this crate's unit tests that reset, read or move the
/// process-wide wTNAF table cache's counters (`koblitz::cache`; a
/// modeled kP moves them through its host check): they share one test
/// process, and a concurrent reset or lookup would perturb another
/// test's hit/miss counts.
#[cfg(test)]
pub(crate) fn wtnaf_cache_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_resolve_to_registry_entries() {
        for t in m0plus::target::registry() {
            assert!(std::ptr::eq(target_by_name(t.name()), t));
        }
    }

    #[test]
    #[should_panic(expected = "unknown target \"cortex-a53\": expected one of [\"cortex-m0plus\"")]
    fn target_lookup_rejects_unknown_names() {
        target_by_name("cortex-a53");
    }
}
