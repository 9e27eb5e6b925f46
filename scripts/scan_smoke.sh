#!/usr/bin/env sh
# scan_smoke.sh — end-to-end kill-resume gate for the scan farm.
#
# Runs hsdscan three times over the same deterministic chip:
#
#   1. an uninterrupted reference scan writing full.txt;
#   2. a journaled scan that is SIGKILLed as soon as the journal holds
#      one complete shard record (a real crash: no cleanup, no flush);
#   3. the same scan with -resume, writing resumed.txt.
#
# The gate: resumed.txt must be byte-identical to full.txt, and the
# resumed run must have actually skipped work (1 <= resumed shards <
# total), otherwise the kill landed after completion and the pass
# would be vacuous.

set -eu

WORK=$(mktemp -d)
SCAN_PID=""
cleanup() {
	[ -n "$SCAN_PID" ] && kill -9 "$SCAN_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# One worker and one grid row per shard stretch the scan to a few
# seconds and maximize the number of journal records, so the kill has a
# wide window to land mid-scan.
EDGE=32768
SCAN_ARGS="-detector AdaBoost -seed 1 -gen-seed 42 -gen-edge $EDGE \
	-workers 1 -shard-rows 1 -top 0"

echo "scan smoke: generating suite"
go run ./cmd/benchgen -small -seed 7 -out "$WORK/suite.gob" >/dev/null

echo "scan smoke: building hsdscan"
go build -o "$WORK/hsdscan" ./cmd/hsdscan

echo "scan smoke: uninterrupted reference scan"
# shellcheck disable=SC2086
"$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS \
	-findings "$WORK/full.txt" >"$WORK/ref.log" 2>&1

echo "scan smoke: journaled scan, killing mid-flight"
# shellcheck disable=SC2086
"$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS \
	-journal "$WORK/scan.journal" \
	-findings "$WORK/interrupted.txt" >"$WORK/kill.log" 2>&1 &
SCAN_PID=$!

# The journal is a header frame then one frame per completed shard,
# each frame = 8-byte magic | u64 big-endian payload length | u32 CRC |
# payload. Kill once the file holds the header frame and one complete
# record frame, reading both lengths from their length fields.
FRAME_HEAD=20

# be_u64 FILE OFFSET prints the big-endian u64 at OFFSET in FILE.
be_u64() {
	n=0
	for b in $(od -An -tu1 -j "$2" -N 8 "$1"); do
		n=$((n * 256 + b))
	done
	echo "$n"
}

killed=""
i=0
while [ $i -lt 600 ]; do
	if ! kill -0 "$SCAN_PID" 2>/dev/null; then
		break # scan finished before we could kill it
	fi
	size=0
	if [ -f "$WORK/scan.journal" ]; then
		size=$(wc -c <"$WORK/scan.journal")
	fi
	if [ "$size" -ge $FRAME_HEAD ]; then
		rec=$((FRAME_HEAD + $(be_u64 "$WORK/scan.journal" 8)))
		if [ "$size" -ge $((rec + FRAME_HEAD)) ] &&
			[ "$size" -ge $((rec + FRAME_HEAD + $(be_u64 "$WORK/scan.journal" $((rec + 8))))) ]; then
			kill -9 "$SCAN_PID"
			killed=1
			break
		fi
	fi
	sleep 0.05
	i=$((i + 1))
done
wait "$SCAN_PID" 2>/dev/null || true
SCAN_PID=""
if [ -z "$killed" ]; then
	echo "scan smoke: scan exited before the kill landed; gate is vacuous" >&2
	cat "$WORK/kill.log" >&2
	exit 1
fi

echo "scan smoke: resuming from the torn journal"
# shellcheck disable=SC2086
"$WORK/hsdscan" -suite "$WORK/suite.gob" $SCAN_ARGS \
	-journal "$WORK/scan.journal" -resume \
	-findings "$WORK/resumed.txt" >"$WORK/resume.log" 2>&1

# The resume must have skipped at least one shard but not all of them.
resumed=$(sed -n 's/^shards: [0-9]* done (\([0-9]*\) resumed from journal).*/\1/p' "$WORK/resume.log")
total=$(sed -n 's/^resuming from .*: \([0-9]*\) shards already journaled/\1/p' "$WORK/resume.log")
if [ -z "$resumed" ] || [ "$resumed" -lt 1 ]; then
	echo "scan smoke: resume skipped no shards (resumed=$resumed); kill landed too early or journal was lost" >&2
	cat "$WORK/resume.log" >&2
	exit 1
fi
grep -q 'quarantined' "$WORK/resume.log" || {
	echo "scan smoke: resume log missing shard summary" >&2
	cat "$WORK/resume.log" >&2
	exit 1
}
echo "scan smoke: resumed $resumed journaled shards (journal had $total)"

if ! diff "$WORK/full.txt" "$WORK/resumed.txt" >"$WORK/findings.diff"; then
	echo "scan smoke: kill-resume findings diverge from uninterrupted scan:" >&2
	head -20 "$WORK/findings.diff" >&2
	exit 1
fi
n=$(wc -l <"$WORK/full.txt")
echo "scan smoke: ok ($n findings byte-identical across kill-resume)"
