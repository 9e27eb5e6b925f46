package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// scanWorkers is the scan farm's default worker count.
func scanWorkers() int { return runtime.GOMAXPROCS(0) }

// scalingPoint is one throughput reading at one GOMAXPROCS.
type scalingPoint struct {
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

// scalingRounds is how many times the scaling pass alternates between
// GOMAXPROCS settings, so a slow stretch of the machine does not land on
// one setting only.
const scalingRounds = 4

// runScaling measures serve_rps (closed loop, serveClients clients) and
// scan_windows_per_s at GOMAXPROCS=1 and at nproc, alternating settings
// for o.seconds per setting after one untimed set-up per workload. It
// is not part of the gated runs.
func runScaling(o options, w io.Writer) error {
	procs := []int{1, runtime.NumCPU()}
	defer runtime.GOMAXPROCS(runtime.NumCPU())
	slot := time.Duration(o.seconds * float64(time.Second) / scalingRounds)

	env, err := startServe(nil)
	if err != nil {
		return err
	}
	cl := newClient(env.url, env.pool, nil)
	cl.closedLoop(o.seed, "warmup", serveWarmup, &tally{})
	serveRates := map[int][]float64{}
	t := &tally{}
	for r := 0; r < scalingRounds; r++ {
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			rates, _ := cl.closedLoop(o.seed, fmt.Sprintf("scaling%d-%d", p, r), slot, t)
			serveRates[p] = append(serveRates[p], rates...)
		}
	}
	cl.close()
	env.close()
	if t.failed.Load() > 0 {
		return fmt.Errorf("serve scaling: %d failed requests", t.failed.Load())
	}

	chipEnv, err := startFullchip(nil)
	if err != nil {
		return err
	}
	scanRates := map[int][]float64{}
	n := 0
	for r := 0; r < scalingRounds; r++ {
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			for start := time.Now(); time.Since(start) < slot; n++ {
				chip, err := buildChip(o.seed, n)
				if err != nil {
					return err
				}
				j, err := chipEnv.runJob(context.Background(), chip, nil)
				if err != nil {
					return err
				}
				if !j.ok {
					return fmt.Errorf("fullchip scaling at GOMAXPROCS=%d: job %d failed", p, n)
				}
				scanRates[p] = append(scanRates[p], ratio(float64(j.windows), j.scan.Seconds()))
			}
		}
	}
	var points []scalingPoint
	for _, p := range procs {
		points = append(points,
			scalingPoint{"serve", "serve_rps", p, median(serveRates[p]), len(serveRates[p])},
			scalingPoint{"fullchip", "scan_windows_per_s", p, median(scanRates[p]), len(scanRates[p])})
	}
	for _, pt := range points {
		fmt.Fprintf(w, "scaling    %-9s %-20s gomaxprocs=%d %10.2f n=%d\n", pt.Workload, pt.Metric, pt.GOMAXPROCS, pt.Value, pt.Samples)
	}
	b, err := json.Marshal(map[string]any{"seed": o.seed, "nproc": runtime.NumCPU(), "scaling": points})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
