#!/usr/bin/env bash
# The full CI gate, runnable identically locally and in CI.
#
# The workspace has no third-party dependencies, so everything runs
# with --offline: no registry or network access is needed (or allowed —
# an accidental new dependency should fail here).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release (offline)"
cargo build --workspace --release --offline

echo "==> cargo test (offline)"
cargo test --workspace --quiet --offline

echo "==> fault campaign smoke (bounded, deterministic)"
target/release/fault_campaign --smoke > /tmp/fault_smoke_1.txt
target/release/fault_campaign --smoke > /tmp/fault_smoke_2.txt
diff /tmp/fault_smoke_1.txt /tmp/fault_smoke_2.txt
grep -q "overall full-profile detection: 100.0%" /tmp/fault_smoke_1.txt

echo "==> fault campaign shard invariance (--shards 1 vs --shards 4)"
target/release/fault_campaign --smoke --shards 1 > /tmp/fault_shard_1.txt
target/release/fault_campaign --smoke --shards 4 > /tmp/fault_shard_4.txt
diff /tmp/fault_shard_1.txt /tmp/fault_shard_4.txt
diff /tmp/fault_smoke_1.txt /tmp/fault_shard_1.txt

echo "==> fault campaign cross-target smoke (--target cortex-m0, deterministic)"
target/release/fault_campaign --smoke --target cortex-m0 > /tmp/fault_m0_1.txt
target/release/fault_campaign --smoke --target cortex-m0 > /tmp/fault_m0_2.txt
diff /tmp/fault_m0_1.txt /tmp/fault_m0_2.txt
grep -q "target cortex-m0 " /tmp/fault_m0_1.txt
# Fault verdicts are target-invariant; only costs may move.
grep -q "overall full-profile detection: 100.0%" /tmp/fault_m0_1.txt

echo "==> verify campaign smoke (leakage + differential, deterministic)"
target/release/verify_campaign --smoke > /tmp/verify_smoke_1.txt
target/release/verify_campaign --smoke > /tmp/verify_smoke_2.txt
diff /tmp/verify_smoke_1.txt /tmp/verify_smoke_2.txt
grep -q "VERDICT: PASS" /tmp/verify_smoke_1.txt
if grep -q -- "-> LEAK" /tmp/verify_smoke_1.txt; then
  echo "unexpected LEAK verdict"
  exit 1
fi
# The bitsliced tier pairs must be present with zero disagreements.
grep -Eq "tier-pair portable/bitsliced +[0-9]+ cases, 0 disagreements" /tmp/verify_smoke_1.txt
grep -Eq "tier-pair counted/bitsliced +[0-9]+ cases, 0 disagreements" /tmp/verify_smoke_1.txt
grep -Eq "tier-pair batch_inv/bitsliced_batch_inv +[0-9]+ cases, 0 disagreements" /tmp/verify_smoke_1.txt

echo "==> verify campaign cross-target smoke (--target cortex-m0, deterministic)"
target/release/verify_campaign --smoke --target cortex-m0 > /tmp/verify_m0_1.txt
target/release/verify_campaign --smoke --target cortex-m0 > /tmp/verify_m0_2.txt
diff /tmp/verify_m0_1.txt /tmp/verify_m0_2.txt
grep -q "VERDICT: PASS" /tmp/verify_m0_1.txt
grep -Eq "tier-pair portable/bitsliced +[0-9]+ cases, 0 disagreements" /tmp/verify_m0_1.txt

echo "==> verify campaign shard invariance (--shards 1 vs --shards 4)"
target/release/verify_campaign --smoke --shards 1 > /tmp/verify_shard_1.txt
target/release/verify_campaign --smoke --shards 4 > /tmp/verify_shard_4.txt
diff /tmp/verify_shard_1.txt /tmp/verify_shard_4.txt
diff /tmp/verify_smoke_1.txt /tmp/verify_shard_1.txt

echo "==> kernel cycle regression gate (vs committed BENCH_*.json)"
target/release/kernel_gate

echo "==> throughput smoke (batch amortisation + bitsliced A/B + shard gates)"
target/release/throughput --smoke > /tmp/throughput_smoke.txt
grep -q "GATE: batch-64 inversion shrink" /tmp/throughput_smoke.txt
grep -q "GATE: bitsliced values bit-identical" /tmp/throughput_smoke.txt
grep -q "GATE: sharded campaign byte-identical" /tmp/throughput_smoke.txt

echo "==> service plane smoke (gas-metered traffic, deterministic)"
target/release/service --smoke > /tmp/service_smoke_1.txt
target/release/service --smoke > /tmp/service_smoke_2.txt
diff /tmp/service_smoke_1.txt /tmp/service_smoke_2.txt
grep -q "GATE: service accounting balanced" /tmp/service_smoke_1.txt
grep -q "GATE: quotes bit-identical to canonical measurement on cortex-m0plus" /tmp/service_smoke_1.txt

echo "==> service plane cross-target smoke (--target cortex-m0)"
target/release/service --smoke --target cortex-m0 > /tmp/service_m0_1.txt
target/release/service --smoke --target cortex-m0 > /tmp/service_m0_2.txt
diff /tmp/service_m0_1.txt /tmp/service_m0_2.txt
grep -q "GATE: quotes bit-identical to canonical measurement on cortex-m0" /tmp/service_m0_1.txt

echo "==> service plane overload smoke (2x capacity + adversarial frames)"
target/release/service --overload > /tmp/service_overload_1.txt
target/release/service --overload > /tmp/service_overload_2.txt
diff /tmp/service_overload_1.txt /tmp/service_overload_2.txt
grep -q "GATE: service accounting balanced" /tmp/service_overload_1.txt
grep -q "GATE: overload survivable" /tmp/service_overload_1.txt

echo "==> e2e benchmark package (tests + one smoke run of every workload)"
# The benchmark is its own package; nothing else compiles it, so an API
# it imports could otherwise disappear unnoticed.
cargo test --offline --quiet --manifest-path e2e/Cargo.toml
cargo run --release --offline -q --manifest-path e2e/Cargo.toml -- --all --smoke > /tmp/e2e_smoke.txt

echo "==> lean build without the trace recorder"
cargo build -p m0plus --release --offline --no-default-features

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings (offline)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> OK"
