#!/usr/bin/env sh
# ci.sh — the repo's verification gate. Mirrors what a reviewer runs:
#
#   vet, build, unit + property tests under the race detector, and a
#   smoke pass over the fuzz seed corpora (no fuzzing engine time).
#
# Usage: ./ci.sh [-short]
#   -short  pass -short to go test (skips the slower property tests)

set -eu

short=""
if [ "${1:-}" = "-short" ]; then
	short="-short"
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race $short ./...

echo "== chaos smoke =="
# The chaos tests inject faults (latency, errors, panics) into the
# primary detector and the scan loop, asserting the serving cascade
# degrades instead of failing; -race because degradation is concurrent.
go test -run Chaos -race ./internal/serve/ ./internal/core/

echo "== inference smoke =="
# The batched inference engine must not fall behind the serial
# per-sample scoring loop, and the pool-sharded parallel matmul must
# not fall behind the serial kernel (best-of-3, 25% grace margin; see
# TestParallelInferenceSmoke / TestParallelMatMulSmoke for reasoning).
HSD_INFER_SMOKE=1 go test -run 'TestParallelInferenceSmoke|TestParallelMatMulSmoke' .

echo "== bench regression gate =="
# Ratio-normalized throughput gate: the batched path must keep at
# least 90% of its committed speedup over the serial loop (compares
# against the last entries in BENCH_inference.json; machine-independent
# because both sides run on the same box).
./scripts/bench_gate.sh

echo "== kill-resume chaos =="
# Training is killed at several injected fault points and resumed from
# the checkpoint; the resumed model must be byte-identical to the
# uninterrupted run. -race because resume replays concurrent-safe RNG
# and optimizer state.
go test -run 'TestKillResume|TestStopResume|TestCheckpointTornWrite' -race ./internal/nn/

echo "== scan farm chaos =="
# The shard coordinator is hammered with injected faults (errors,
# panics, latency) and repeated kill-resume cycles over one journal;
# findings must stay byte-identical to an uninterrupted serial scan
# and the shared clip cache must hold under -race.
go test -run 'TestChaosFarm' -race ./internal/scanfarm/

echo "== router equivalence =="
# The routing-equivalence property layer: for any band setting the
# router's verdicts must be bit-identical to the answering stage's raw
# verdict, and always-escalate mode must reproduce the final detector's
# confusion matrix. -race because the batch path clones members per
# call and shares atomic routing counters across scan workers.
go test -run 'TestRouter|TestFitBand|TestCalibrat|TestGate.*Router' -race ./internal/router/ ./internal/registry/

echo "== router smoke =="
# End to end: train the routed cascade and its members on a fixed-seed
# benchmark; router recall must hold against both the boost-only and
# the deep rows while the deep stage sees only the escalated band.
./scripts/router_smoke.sh

echo "== scan smoke =="
# End to end: hsdscan is SIGKILLed mid-scan with a journal attached,
# then rerun with -resume; the stitched findings file must diff clean
# against an uninterrupted scan of the same chip.
./scripts/scan_smoke.sh

echo "== fuzz seed smoke =="
# -run=Fuzz executes every fuzz target once per seed corpus entry,
# without the fuzzing engine; crashes here mean a regressed parser or
# model loader.
go test -run=Fuzz ./internal/layout/ ./internal/gdsii/ ./internal/nn/ ./internal/durable/

echo "== trace store race =="
# The trace store and tail sampler are hit from every request
# goroutine; their concurrency tests must hold under the detector.
go test -run 'TestConcurrentAppendRead|TestChaosTailSampling' -race ./internal/trace/

echo "== trace smoke =="
# End to end: boot hsdserve with tracing and a debug listener, score
# one clip, and assert /debug/traces returns that request's trace with
# non-empty child spans (raster/features/inference under the root).
./scripts/trace_smoke.sh

echo "== reload smoke =="
# End to end: boot hsdserve with a watched model path, hot-reload a
# freshly trained model via /admin/reload and via the watcher, and
# assert the generation gauge and reload counters move while a corrupt
# model is refused.
./scripts/reload_smoke.sh

echo "== quality monitor determinism =="
# The sketch/confusion snapshots must be byte-identical for the same
# event multiset under any worker count, and the OnCollect contract
# must hold while hooks register mid-scrape; both only mean anything
# under the race detector.
go test -run 'TestSnapshotDeterministic|TestOnCollectConcurrent' -race ./internal/qualitymon/ ./internal/telemetry/

echo "== data engine chaos =="
# The active-learning engine is kill-resumed at injected fault points
# across every stage boundary (post-select, mid-label, post-train,
# pre-ship); each resume must replay the WAL to the same state and the
# finally-shipped model must be byte-identical to the uninterrupted
# cycle. -race because labeling fans out across workers over one WAL.
go test -run 'TestChaosLearn' -race ./internal/datengine/

echo "== learn smoke =="
# End to end: hsdlearn mines the base model's uncertainty band, runs a
# full select/label/retrain/ship cycle, is SIGKILLed mid-label, and is
# rerun with -resume; the resumed cycle must reuse >=1 durable label
# and ship a model byte-identical to the uninterrupted run's.
./scripts/learn_smoke.sh

echo "== quality smoke =="
# End to end: hsdtrain writes a score-distribution baseline sidecar,
# hot reload installs it, an injected covariate shift pages
# hotspot_quality_alert_state within the fast window, and rollback
# clears the alert through the ClearHold hysteresis.
./scripts/quality_smoke.sh

echo "ci: all checks passed"
