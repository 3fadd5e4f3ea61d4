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

echo "==> fault campaign reports pinned (SHA-256 of the whole output)"
# Verdicts, counts, trace lengths and countermeasure costs are pure
# functions of the code: a change that moves any of them fails here,
# not only one whose output differs between two runs.
pin_sha256() { # FILE EXPECTED LABEL
  local got
  got=$(sha256sum "$1" | cut -d' ' -f1)
  if [ "$got" != "$2" ]; then
    echo "$3 output changed: sha256 $got, expected $2"
    exit 1
  fi
}
target/release/fault_campaign > /tmp/fault_default.txt
pin_sha256 /tmp/fault_default.txt \
  c2f5f3146fc03b3d7b287dfafbd5bde3ae6578a2b513684c27b60aa588f956aa \
  "fault_campaign (seed 7, 200 runs)"
pin_sha256 /tmp/fault_m0_1.txt \
  207bc666b7d47599defb6459705836eee05d0af537032e1bbd43db4d2f10b20e \
  "fault_campaign --smoke --target cortex-m0"

echo "==> verify campaign smoke (leakage + differential, deterministic)"
target/release/verify_campaign --smoke > /tmp/verify_smoke_1.txt
target/release/verify_campaign --smoke > /tmp/verify_smoke_2.txt
diff /tmp/verify_smoke_1.txt /tmp/verify_smoke_2.txt
grep -q "VERDICT: PASS" /tmp/verify_smoke_1.txt
if grep -q -- "-> LEAK" /tmp/verify_smoke_1.txt; then
  echo "unexpected LEAK verdict"
  exit 1
fi

echo "==> verify campaign cross-target smoke (--target cortex-m0, deterministic)"
target/release/verify_campaign --smoke --target cortex-m0 > /tmp/verify_m0_1.txt
target/release/verify_campaign --smoke --target cortex-m0 > /tmp/verify_m0_2.txt
diff /tmp/verify_m0_1.txt /tmp/verify_m0_2.txt
grep -q "VERDICT: PASS" /tmp/verify_m0_1.txt

echo "==> verify campaign tier pairs present with 0 disagreements (both smokes)"
# VERDICT: PASS already covers every pair's counter; this one list
# holds that each pair below still runs.
verify_pairs=(
  order_binary/order_trace    # trace-based subgroup check vs n*P
  recode_int/recode_fixed     # fixed-width recoding vs its Int oracle
  scalar_inv/scalar_batch_inv # mod-n batch inversion vs per element
  scalar_int/scalar_fixed     # fixed-width mod-n arithmetic vs Int
  scalar_int/scalar_inv_public # variable-time mod-n inverses vs Int
  table_binary/table_proj     # projective wTNAF table vs affine oracle
  kg_horner/kg_comb           # kG comb and double multiply vs Horner
  binary/double_mul           # double multiply vs affine double-and-add
  dm_horner/dm_comb           # a recurring key's joint comb vs two lanes
  ld/lambda                   # host λ-coordinate loops vs the LD loop
  binary/coset                # kP and double multiply off the subgroup vs double-and-add
  kp_horner/kp_comb           # cached kP comb vs the one-lane loop
  chain/table                 # public-input linear maps vs squaring chains
)
# The carry-less and SHA-NI pairs run only on a CPU with PCLMULQDQ and
# the SHA extensions; verify_campaign prints which ones it detected.
if ! grep -Eqx "host features: pclmulqdq (yes|no), sha-ni (yes|no)" /tmp/verify_smoke_1.txt; then
  echo "verify campaign smoke printed no host features line"
  exit 1
fi
if grep -qx "host features: pclmulqdq yes, sha-ni .*" /tmp/verify_smoke_1.txt; then
  verify_pairs+=(
    paper/clmul_mul           # carry-less host kernels vs the paper tier
    paper/clmul_sqr
    eea/clmul_inv
  )
fi
if grep -qx "host features: pclmulqdq .*, sha-ni yes" /tmp/verify_smoke_1.txt; then
  verify_pairs+=(sha_portable/sha_ni) # SHA-NI compression vs the portable one
fi
for out in /tmp/verify_smoke_1.txt /tmp/verify_m0_1.txt; do
  for pair in "${verify_pairs[@]}"; do
    if ! grep -Eq "tier-pair $pair +[0-9]+ cases, 0 disagreements" "$out"; then
      echo "tier pair $pair missing or disagreeing in $out"
      exit 1
    fi
  done
done

echo "==> verify campaign shard invariance (--shards 1 vs --shards 4)"
target/release/verify_campaign --smoke --shards 1 > /tmp/verify_shard_1.txt
target/release/verify_campaign --smoke --shards 4 > /tmp/verify_shard_4.txt
diff /tmp/verify_shard_1.txt /tmp/verify_shard_4.txt
diff /tmp/verify_smoke_1.txt /tmp/verify_shard_1.txt

echo "==> BENCH document gate (every deterministic leaf vs the newest committed BENCH_<n>.json)"
target/release/kernel_gate

echo "==> throughput smoke (batch amortisation + shard gates, deterministic)"
target/release/throughput --smoke > /tmp/throughput_smoke_1.txt
target/release/throughput --smoke > /tmp/throughput_smoke_2.txt
diff /tmp/throughput_smoke_1.txt /tmp/throughput_smoke_2.txt
grep -q "GATE: batch-64 inversion shrink" /tmp/throughput_smoke_1.txt
grep -q "GATE: sharded campaign byte-identical" /tmp/throughput_smoke_1.txt

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
# Pin the seed-1 output digests: an arithmetic change that alters any
# signature, verdict or shared secret fails here by workload name.
for pin in \
  "sign_b16 fb6c49eb16b669d1e2a0f046dc831fc4c9bbaa89d8c0b8b830925eb510086c81" \
  "verify_recurring_b128 8255057ddbf33b06e5e6c9c1405eea2c23af490857f2b96345d9b81423dcfcac" \
  "ecdh_churn_b16 efbc527999c5752e18546c3e4c30c1ef9a76088cd622f21fe883a3cb00a46b19" \
  "service_mixed ac57bb5b1bb6bf84ec0f4200bbdc26bd11a1a42b81c059beb7698ba406edd65c" \
  "fault_replay 64dd00afe43447c4898d6ccffd1559038d0f541c4cfd0278de85661eb47402be"; do
  if ! grep -qF "[${pin%% *}] output_digest ${pin#* } sha256" /tmp/e2e_smoke.txt; then
    echo "e2e output digest changed: ${pin%% *} (expected ${pin#* })"
    exit 1
  fi
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings (offline)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc -D warnings (offline)"
# --lib: the service package's bin and lib share a name, so documenting
# both would collide on one output file.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> OK"
