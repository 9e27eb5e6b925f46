package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/router"
	"github.com/golitho/hsd/internal/scanfarm"
	"github.com/golitho/hsd/internal/telemetry"
)

const (
	// chipHalfNM is the edge of each square half of a generated chip:
	// 8x8 scan windows per half at the default 1024 nm clip and 512 nm
	// stride.
	chipHalfNM = 4096
	// cellNM is the standard-cell pitch of the tiled half. It equals the
	// scan stride, so every window inside one row of cells sees the same
	// geometry and all but the row's first window hit the clip cache.
	cellNM = 512
	// cellTypes is the number of distinct cells per chip, one per row.
	cellTypes = 8
	// scanCacheSize is hsdscan's default clip-cache capacity.
	scanCacheSize = 4096
	// refChecks is how many of a run's chips are also scanned serially
	// with core.ScanCtx; their sharded findings must equal it.
	refChecks = 3
)

// buildChip builds chip j of a run: the left half is a tiled
// standard-cell array (cellTypes cells cut from one generated chip, one
// per row, repeated along it), the right half a generated random-logic
// region whose windows all differ.
func buildChip(seed int64, j int) (*layout.Layout, error) {
	rng := subRNG(seed, fmt.Sprintf("chip%d", j))
	style := hsd.DefaultPatternStyle()
	logic, err := hsd.GenerateChip(rng.Int63(), chipHalfNM, style)
	if err != nil {
		return nil, err
	}
	lib, err := hsd.GenerateChip(rng.Int63(), chipHalfNM, style)
	if err != nil {
		return nil, err
	}
	cells, err := pickCells(lib)
	if err != nil {
		return nil, err
	}
	chip := layout.NewWithGrid(fmt.Sprintf("perfbench-%d-%d", seed, j), 2048)
	for row := 0; row < chipHalfNM/cellNM; row++ {
		cell := cells[row%len(cells)]
		for col := 0; col < chipHalfNM/cellNM; col++ {
			off := geom.Pt(col*cellNM, row*cellNM)
			for _, r := range cell {
				if err := chip.AddRect(r.Translate(off)); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, r := range logic.Shapes() {
		if err := chip.AddRect(r.Translate(geom.Pt(chipHalfNM, 0))); err != nil {
			return nil, err
		}
	}
	return chip, nil
}

// pickCells cuts the first cellTypes cell-sized squares holding at least
// two shapes out of lib, in row-major order.
func pickCells(lib *layout.Layout) ([][]geom.Rect, error) {
	var cells [][]geom.Rect
	for y := 0; y < chipHalfNM && len(cells) < cellTypes; y += cellNM {
		for x := 0; x < chipHalfNM && len(cells) < cellTypes; x += cellNM {
			c, err := lib.ClipAt(geom.Pt(x+cellNM/2, y+cellNM/2), cellNM, 1)
			if err != nil {
				return nil, err
			}
			if len(c.Shapes) >= 2 {
				cells = append(cells, c.Translate().Shapes)
			}
		}
	}
	if len(cells) < cellTypes {
		return nil, fmt.Errorf("cell library chip has only %d usable cells", len(cells))
	}
	return cells, nil
}

// chipEnv is the fullchip workload's trained state: the Router hsdscan
// would scan with, and the simulator that verifies findings.
type chipEnv struct {
	router   *router.Router
	det      core.Detector // the router, wrapped in traced runs
	sim      *lithosim.Simulator
	clipNM   int
	coreFrac float64
}

func startFullchip(rec *recorder) (*chipEnv, error) {
	suite, err := generateSuite()
	if err != nil {
		return nil, err
	}
	det, err := trainZoo("Router", &suite.Benchmarks[0])
	if err != nil {
		return nil, err
	}
	rt := det.(*router.Router)
	env := &chipEnv{router: rt, det: rt, clipNM: suite.Config.ClipNM, coreFrac: suite.Config.CoreFrac}
	if rec != nil {
		instrumentRouter(rt, rec)
		if env.det, err = wrapDetector(rt, rec, "router.score"); err != nil {
			return nil, err
		}
	}
	if env.sim, err = lithosim.New(lithosim.DefaultConfig()); err != nil {
		return nil, err
	}
	return env, nil
}

// jobResult is one chip job: a sharded scan, then lithography
// verification of every finding (the survey's ODST).
type jobResult struct {
	windows   int
	scan      time.Duration
	odst      time.Duration
	findings  []core.Finding
	confirmed int
	hits      int64
	misses    int64
	shards    int
	attempts  float64
	sims      int64
	ok        bool
}

func (e *chipEnv) runJob(ctx context.Context, chip *layout.Layout, rec *recorder) (jobResult, error) {
	reg := telemetry.NewRegistry()
	sims0 := e.sim.Stats().Simulations
	t0 := time.Now()
	sctx, end := rec.begin(ctx, "scanfarm.run")
	res, err := scanfarm.Run(sctx, chip, e.det, scanfarm.Config{
		ClipNM:    e.clipNM,
		CoreFrac:  e.coreFrac,
		SkipEmpty: true,
		CacheSize: scanCacheSize,
		Metrics:   reg,
	})
	end()
	j := jobResult{scan: time.Since(t0)}
	if err != nil {
		return j, err
	}
	j.windows = res.Windows
	j.findings = res.Findings
	j.hits, j.misses = res.Cache.Hits, res.Cache.Misses
	j.shards = res.Shards
	j.attempts = reg.Counter("scan_shard_attempts_total").Value()
	j.ok = len(res.Quarantined) == 0 && !res.Interrupted && res.Completed == res.Shards
	for _, fd := range res.Findings {
		clip, err := chip.ClipAt(fd.Center, e.clipNM, e.coreFrac)
		if err != nil {
			return j, err
		}
		_, vend := rec.begin(ctx, "lithosim.simulate")
		r, err := e.sim.Simulate(clip)
		vend()
		if err != nil {
			j.ok = false
			continue
		}
		if r.Hotspot {
			j.confirmed++
		}
	}
	j.odst = time.Since(t0)
	j.sims = e.sim.Stats().Simulations - sims0
	return j, nil
}

// reference is the serial single-process scan a sharded scan of the
// same chip must reproduce.
func (e *chipEnv) reference(chip *layout.Layout) ([]core.Finding, error) {
	res, err := core.ScanCtx(context.Background(), chip, e.router, core.ScanConfig{
		ClipNM:    e.clipNM,
		CoreFrac:  e.coreFrac,
		SkipEmpty: true,
		Workers:   1,
	})
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return nil, fmt.Errorf("reference scan interrupted")
	}
	return res.Findings, nil
}

// chipJob is one measured job with the chip it scanned and what it
// allocated.
type chipJob struct {
	chip        *layout.Layout
	r           jobResult
	traced      bool
	alloc, gcMS float64
}

// runPart runs one warm-up job, then chip jobs for dur numbered from
// first. In a traced run odd-numbered jobs are traced.
func (e *chipEnv) runPart(seed int64, first int, dur time.Duration, rec *recorder, warm *tally) ([]chipJob, error) {
	chip, err := buildChip(seed, -1-first)
	if err != nil {
		return nil, err
	}
	w, err := e.runJob(context.Background(), chip, nil)
	if err != nil {
		return nil, err
	}
	warm.record(w.ok)
	e.router.ResetStats()
	var jobs []chipJob
	start := time.Now()
	for i := first; time.Since(start) < dur || i < first+2; i++ {
		chip, err := buildChip(seed, i)
		if err != nil {
			return nil, err
		}
		traced := rec != nil && i%2 == 1
		rec.enable(traced)
		mem := startMem()
		r, err := e.runJob(withOp(context.Background(), fmt.Sprintf("job-%d", i)), chip, rec)
		alloc, gcMS := mem.perOp(1)
		rec.enable(false)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, chipJob{chip: chip, r: r, traced: traced, alloc: alloc, gcMS: gcMS})
	}
	return jobs, nil
}

// checkReferences rescans serially the chips of jobs numbered (from
// first) below refChecks; a job fails unless its sharded findings equal
// the serial ones.
func (e *chipEnv) checkReferences(jobs []chipJob, first int) error {
	for k := range jobs {
		if first+k >= refChecks || !jobs[k].r.ok {
			continue
		}
		want, err := e.reference(jobs[k].chip)
		if err != nil {
			return err
		}
		jobs[k].r.ok = reflect.DeepEqual(want, jobs[k].r.findings)
	}
	return nil
}

func runFullchip(o options, rec *recorder) (*result, error) {
	res := &result{Timings: map[string]summary{}}
	// Each set-up is followed by its share of the measurement, so the
	// measured seconds are spread over the whole run. A traced run
	// reports no set-up time and sets up once.
	parts := setupRuns
	if rec != nil {
		parts = 1
	}
	total := time.Duration(o.seconds * float64(time.Second))
	warm, measured := &tally{name: "warmup"}, &tally{name: "jobs"}
	var jobs []chipJob
	var routerPL map[string]float64
	var speed *speedMeter
	if rec == nil {
		speed = &speedMeter{}
	}
	for k := 0; k < parts; k++ {
		env, secs, err := timed(func() (*chipEnv, error) { return startFullchip(rec) })
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, secs)
		if err := speed.sample(); err != nil {
			return nil, err
		}
		part, err := env.runPart(o.seed, len(jobs), total/time.Duration(parts), rec, warm)
		if err != nil {
			return nil, err
		}
		if err := speed.sample(); err != nil {
			return nil, err
		}
		// Router counters first: the serial reference scans route too.
		routerPL = routerLayers(env.router, rec.stats())
		if err := env.checkReferences(part, len(jobs)); err != nil {
			return nil, err
		}
		jobs = append(jobs, part...)
	}
	for _, jb := range jobs {
		measured.record(jb.r.ok)
	}
	res.Phases = append(res.Phases, warm.count(), measured.count())

	// throughput is the median over the selected jobs of windows per
	// second of scan wall time: one job slowed by interference from
	// outside the benchmark moves one sample, not the rate.
	throughput := func(sel func(chipJob) bool) float64 {
		var rates []float64
		for _, jb := range jobs {
			if sel(jb) {
				rates = append(rates, ratio(float64(jb.r.windows), jb.r.scan.Seconds()))
			}
		}
		return median(rates)
	}
	var odst, scan, verify []float64
	var findings, confirmed int
	for _, jb := range jobs {
		odst = append(odst, float64(jb.r.odst)/1e6)
		scan = append(scan, float64(jb.r.scan)/1e6)
		verify = append(verify, float64(jb.r.odst-jb.r.scan)/1e6)
		findings += len(jb.r.findings)
		confirmed += jb.r.confirmed
	}
	res.Timings["job.odst_ms"] = summarize(odst)
	res.Timings["job.scan_ms"] = summarize(scan)
	res.Timings["job.verify_ms"] = summarize(verify)

	if rec == nil {
		res.SpeedFactor = speed.factor()
		wps := throughput(func(chipJob) bool { return true })
		res.EndToEnd = map[string]float64{
			"throughput_per_s": wps,
			"latency_p50_ms":   median(odst),
		}
		res.add("scan_windows_per_s", wps, "windows/s", len(jobs))
		res.add("odst_s", median(odst)/1000, "s", len(odst))
		res.add("verified_precision", ratio(float64(confirmed), float64(findings)), "ratio", findings)
		return res, nil
	}

	pl := routerPL
	st := rec.stats()
	var traced int
	var hits, lookups, attempts, shards, sims float64
	var capacity, alloc, gcMS float64
	for _, jb := range jobs {
		alloc += jb.alloc
		gcMS += jb.gcMS
		if !jb.traced {
			continue
		}
		traced++
		hits += float64(jb.r.hits)
		lookups += float64(jb.r.hits + jb.r.misses)
		attempts += jb.r.attempts
		shards += float64(jb.r.shards)
		sims += float64(jb.r.sims)
		capacity += float64(scanWorkers()) * jb.r.scan.Seconds()
	}
	busy := st.totalS("router.score")
	pl["scanfarm.cache_hit_frac"] = ratio(hits, lookups)
	pl["scanfarm.score_calls"] = ratio(float64(len(st["router.score"])), float64(traced))
	pl["scanfarm.shard_attempts"] = ratio(attempts, shards)
	pl["scanfarm.worker_busy_frac"] = ratio(busy, capacity)
	pl["lithosim.verify_ms"] = st.meanMS("lithosim.simulate")
	pl["lithosim.simulations"] = ratio(sims, float64(traced))
	pl["go.alloc_bytes_per_op"] = alloc / float64(len(jobs))
	pl["go.gc_pause_ms"] = gcMS / float64(len(jobs))
	pl["trace.overhead_frac"] = 1 - throughput(func(jb chipJob) bool { return jb.traced })/
		throughput(func(jb chipJob) bool { return !jb.traced })
	res.PerLayer = zeroFill(pl)
	return res, nil
}
