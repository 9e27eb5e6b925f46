#!/bin/sh
# Regenerates bench_output.txt in three chunks (single-core friendly).
set -e
cd /root/repo
: > bench_output.txt
echo "# chunk A: evaluation tables (zoo) + Fig.2" >> bench_output.txt
go test -timeout 60m -bench 'Table|Fig2' -benchmem -run XXX . >> bench_output.txt 2>&1
echo "# chunk B: figures and ablations" >> bench_output.txt
go test -timeout 60m -bench 'Fig3|Fig4|Fig5|Fig6|Ablation' -benchmem -run XXX . >> bench_output.txt 2>&1
echo "# chunk C: micro-benchmarks" >> bench_output.txt
go test -timeout 60m -bench . -benchmem -run XXX ./internal/... >> bench_output.txt 2>&1
echo "# chunk D: inference engine (appends trajectory to BENCH_inference.json)" >> bench_output.txt
infer_out=$(go test -timeout 60m -bench 'PredictBatch|ParallelMatMul' -benchmem -run XXX . 2>&1)
echo "$infer_out" >> bench_output.txt
echo "$infer_out" | awk -v ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^Benchmark/ {
		name = $1; ns = "null"; bytes = "null"; allocs = "null"
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "B/op") bytes = $i
			if ($(i+1) == "allocs/op") allocs = $i
		}
		printf("{\"ts\":\"%s\",\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n", ts, name, ns, bytes, allocs)
	}' >> BENCH_inference.json
echo "# chunk E: tracing overhead (appends trajectory to BENCH_trace.json)" >> bench_output.txt
trace_out=$(go test -timeout 60m -bench 'ScanTracedVsUntraced' -benchmem -run XXX ./internal/core/ 2>&1)
echo "$trace_out" >> bench_output.txt
echo "$trace_out" | awk -v ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^Benchmark/ {
		name = $1; ns = "null"; bytes = "null"; allocs = "null"
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "B/op") bytes = $i
			if ($(i+1) == "allocs/op") allocs = $i
		}
		printf("{\"ts\":\"%s\",\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n", ts, name, ns, bytes, allocs)
	}' >> BENCH_trace.json
echo "# chunk F: scan farm throughput, cold vs warm clip cache (appends trajectory to BENCH_scan.json)" >> bench_output.txt
scan_out=$(go test -timeout 60m -bench 'ScanFarm' -benchmem -run XXX ./internal/scanfarm/ 2>&1)
echo "$scan_out" >> bench_output.txt
echo "$scan_out" | awk -v ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^Benchmark/ {
		name = $1; ns = "null"; bytes = "null"; allocs = "null"
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "B/op") bytes = $i
			if ($(i+1) == "allocs/op") allocs = $i
		}
		printf("{\"ts\":\"%s\",\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n", ts, name, ns, bytes, allocs)
	}' >> BENCH_scan.json
echo "# chunk G: router frontier, per-stage ODST and escalation rate (appends trajectory to BENCH_router.json)" >> bench_output.txt
router_out=$(go test -timeout 60m -bench 'RouterFrontier' -benchtime 1x -run XXX . 2>&1)
echo "$router_out" >> bench_output.txt
echo "$router_out" | awk -v ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^Benchmark/ {
		# Emit every value/unit metric pair the harness reported —
		# ns/op plus the custom router metrics (router_recall,
		# router_odst_us, deep_recall, deep_odst_us, deep_frac,
		# stageN_s) — as one JSON line.
		printf("{\"ts\":\"%s\",\"name\":\"%s\"", ts, $1)
		for (i = 2; i < NF; i++) {
			unit = $(i+1)
			if (unit ~ /^[A-Za-z_][A-Za-z0-9_\/]*$/ && $i ~ /^[0-9.e+-]+$/) {
				gsub(/\//, "_per_", unit)
				printf(",\"%s\":%s", unit, $i)
				i++
			}
		}
		printf("}\n")
	}' >> BENCH_router.json
echo "# chunk H: quality-monitor overhead, scan with monitoring off/on plus per-event cost (appends trajectory to BENCH_monitor.json)" >> bench_output.txt
monitor_out=$(go test -timeout 60m -bench 'ScanFarmQuality|MonitorObserve|MonitorSnapshot' -benchmem -run XXX ./internal/scanfarm/ ./internal/qualitymon/ 2>&1)
echo "$monitor_out" >> bench_output.txt
echo "$monitor_out" | awk -v ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
	/^Benchmark/ {
		name = $1; ns = "null"; bytes = "null"; allocs = "null"
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "B/op") bytes = $i
			if ($(i+1) == "allocs/op") allocs = $i
		}
		printf("{\"ts\":\"%s\",\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n", ts, name, ns, bytes, allocs)
	}' >> BENCH_monitor.json
echo "# done" >> bench_output.txt
