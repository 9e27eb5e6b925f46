package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/registry"
	"github.com/golitho/hsd/internal/telemetry"
)

const (
	// learnBatch, learnMargin and learnGolden are hsdlearn's defaults:
	// k-center batch size, mining band around the threshold, and
	// golden-set size of the ship gate.
	learnBatch  = 8
	learnMargin = 0.15
	learnGolden = 64
	// learnChunk is how many unseen clips each cycle mines.
	learnChunk = 40
)

// learnEnv is one active-learning loop over its own fresh WAL: the
// CNN-biased base model, the registry that gates every shipped model,
// and the engine.
type learnEnv struct {
	name      string
	dir       string
	spec      hsd.DetectorSpec
	baseTrain []core.LabeledClip
	samples   []hsd.Sample
	reg       *registry.Registry
	eng       *datengine.Engine
	metrics   *telemetry.Registry
	sim       *lithosim.Simulator
	rec       *recorder
	epochs    []nn.EpochStats
}

func startLearn(name, dir string, rec *recorder) (*learnEnv, error) {
	suite, err := generateSuite()
	if err != nil {
		return nil, err
	}
	bench := &suite.Benchmarks[0]
	spec, err := zooSpec("CNN-biased")
	if err != nil {
		return nil, err
	}
	e := &learnEnv{name: name, dir: dir, spec: spec, rec: rec, metrics: telemetry.NewRegistry(),
		samples: testSamples(suite)}
	base := spec.New().(*core.NeuralDetector)
	e.baseTrain = hsd.FromSamples(bench.Train.Samples)
	if err := base.Fit(hsd.AugmentMinority(e.baseTrain, spec.Augment)); err != nil {
		return nil, err
	}
	if e.sim, err = lithosim.New(lithosim.DefaultConfig()); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e.reg = registry.New(base, registry.Config{
		Golden:            goldenSet(bench, learnGolden),
		MaxRecallDrop:     0.05,
		MaxFalseAlarmRise: 0.05,
		Loader: func(path string) (core.Detector, error) {
			net, err := nn.LoadFile(path)
			if err != nil {
				return nil, err
			}
			return base.WithNetwork(net)
		},
	})
	e.eng, err = datengine.Open(filepath.Join(dir, "learn.wal"), datengine.Config{
		Detector:       spec.Name,
		BatchSize:      learnBatch,
		OracleDeadline: 2 * time.Second,
		OracleAttempts: 3,
		Oracle:         e.oracle,
		Train:          e.train,
		Ship:           e.ship,
		Metrics:        e.metrics,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

func (e *learnEnv) close() {
	e.eng.Close()
	os.RemoveAll(e.dir)
}

func (e *learnEnv) oracle(ctx context.Context, clip layout.Clip) (bool, error) {
	ctx, end := e.rec.begin(ctx, "lithosim.label")
	defer end()
	return e.sim.LabelCtx(ctx, clip)
}

// train refits a fresh detector on the base split plus the labeled
// batch, as hsdlearn does, and saves it.
func (e *learnEnv) train(ctx context.Context, batchID int, labeled []core.LabeledClip) (string, error) {
	_, end := e.rec.begin(ctx, "nn.train")
	defer end()
	cand := e.spec.New().(*core.NeuralDetector)
	train := append(append([]core.LabeledClip(nil), e.baseTrain...), labeled...)
	if err := cand.Fit(hsd.AugmentMinority(train, e.spec.Augment)); err != nil {
		return "", err
	}
	if e.rec != nil && e.rec.on.Load() {
		e.epochs = append(e.epochs, cand.History()...)
	}
	path := filepath.Join(e.dir, fmt.Sprintf("model-%03d.gob", batchID))
	return path, hsd.SaveNetworkFile(path, cand)
}

func (e *learnEnv) ship(ctx context.Context, _ int, path string) error {
	ctx, end := e.rec.begin(ctx, "registry.ship")
	defer end()
	_, verdict, err := e.reg.Reload(ctx, path)
	if errors.Is(err, registry.ErrRejected) {
		return fmt.Errorf("%w: %s", datengine.ErrShipRejected, verdict.Reason)
	}
	return err
}

// cycleResult is one mine→select→label→retrain→ship cycle.
type cycleResult struct {
	wall    time.Duration
	labeled int
	outcome string
	model   [sha256.Size]byte
}

// cycle mines chunk i of the candidate pool with the live model, then
// runs one engine cycle.
func (e *learnEnv) cycle(pool []layout.Clip, i int) (cycleResult, error) {
	ctx := withOp(context.Background(), fmt.Sprintf("cycle-%s%d", e.name, i))
	t0 := time.Now()
	mctx, mend := e.rec.begin(ctx, "datengine.mine")
	live := e.reg.Live().Detector
	thr := live.Threshold()
	for _, clip := range pool[i*learnChunk : (i+1)*learnChunk] {
		score, err := core.ScoreClipCtx(mctx, live, clip)
		if err != nil {
			mend()
			return cycleResult{}, fmt.Errorf("mine: %w", err)
		}
		if d := score - thr; d < -learnMargin || d > learnMargin {
			continue
		}
		if _, err := e.eng.Ingest(clip, score, "base", "lowconf"); err != nil {
			mend()
			return cycleResult{}, fmt.Errorf("mine: %w", err)
		}
	}
	mend()
	rctx, rend := e.rec.begin(ctx, "datengine.cycle")
	rep, err := e.eng.RunCycle(rctx)
	rend()
	r := cycleResult{wall: time.Since(t0)}
	if err != nil {
		return r, err
	}
	r.labeled = rep.Labeled
	r.outcome = rep.Outcome
	b, err := os.ReadFile(rep.ModelPath)
	if err != nil {
		return r, err
	}
	r.model = sha256.Sum256(b)
	return r, nil
}

// learnPool is a run's candidate stream: every test clip of the suite
// in a seeded order. Cycle i mines clips [i*learnChunk, (i+1)*learnChunk).
func learnPool(samples []hsd.Sample, seed int64) []layout.Clip {
	rng := subRNG(seed, "learn-pool")
	out := make([]layout.Clip, len(samples))
	for i, p := range rng.Perm(len(samples)) {
		out[i] = samples[p].Clip
	}
	return out
}

func runLearn(o options, rec *recorder) (*result, error) {
	res := &result{Timings: map[string]summary{}}
	cycles := &tally{name: "cycles"}
	var envs []*learnEnv
	defer func() {
		for _, e := range envs {
			e.close()
		}
	}()
	var (
		pool                 []layout.Clip
		walls, plain, traced []float64
		labeled              int
		measured             time.Duration
		allocB, pauseMS      float64
	)
	var speed *speedMeter
	if rec == nil {
		speed = &speedMeter{}
	}
	// run runs cycle i on engine e, tracing B's cycles in a traced run.
	run := func(e *learnEnv, i int) (cycleResult, error) {
		rec.enable(e.name == "B")
		mem := startMem()
		r, err := e.cycle(pool, i)
		a, p := mem.perOp(1)
		rec.enable(false)
		if err != nil {
			return r, fmt.Errorf("engine %s cycle %d: %w", e.name, i, err)
		}
		allocB, pauseMS = allocB+a, pauseMS+p
		measured += r.wall
		ms := float64(r.wall) / 1e6
		walls = append(walls, ms)
		if e.name == "B" {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
		labeled += r.labeled
		return r, speed.sample()
	}
	// pair records cycle i of engines A and B: both must ship the same
	// model bytes with the same outcome (the data engine's determinism
	// contract), or B's cycle fails.
	pair := func(a, b cycleResult) {
		cycles.record(true)
		cycles.record(a.model == b.model && a.outcome == b.outcome)
	}

	// Engines A and B each set up over a fresh WAL and then run cycle 0,
	// so set-ups and measured cycles alternate over the run. Further
	// cycles alternate A and B while the measured seconds last.
	var first [2]cycleResult
	for k := 0; k < 2; k++ {
		name := string(rune('A' + k))
		dir := filepath.Join(o.out, "work", fmt.Sprintf("learn-%d-%s", os.Getpid(), name))
		e, secs, err := timed(func() (*learnEnv, error) { return startLearn(name, dir, rec) })
		if err != nil {
			return nil, err
		}
		envs = append(envs, e)
		res.SetupS = append(res.SetupS, secs)
		if err := speed.sample(); err != nil {
			return nil, err
		}
		if k == 0 {
			pool = learnPool(e.samples, o.seed)
		}
		if first[k], err = run(e, 0); err != nil {
			return nil, err
		}
	}
	pair(first[0], first[1])
	total := time.Duration(o.seconds * float64(time.Second))
	for i := 1; i < len(pool)/learnChunk && measured < total; i++ {
		ra, err := run(envs[0], i)
		if err != nil {
			return nil, err
		}
		rb, err := run(envs[1], i)
		if err != nil {
			return nil, err
		}
		pair(ra, rb)
	}
	res.Phases = append(res.Phases, cycles.count())
	res.Timings["cycle_ms"] = summarize(walls)

	if rec == nil {
		res.SpeedFactor = speed.factor()
		res.EndToEnd = map[string]float64{
			"throughput_per_s": ratio(float64(labeled), measured.Seconds()),
			"latency_p50_ms":   median(walls),
		}
		res.add("cycle_s", median(walls)/1000, "s", len(walls))
		return res, nil
	}

	b := envs[1]
	st := rec.stats()
	nt := float64(len(traced))
	label, trainS, shipS := st.totalS("lithosim.label"), st.totalS("nn.train"), st.totalS("registry.ship")
	var epochMS []float64
	for _, ep := range b.epochs {
		epochMS = append(epochMS, float64(ep.Elapsed)/1e6)
	}
	pl := map[string]float64{
		"datengine.mine_s":         st.totalS("datengine.mine") / nt,
		"datengine.label_s":        label / nt,
		"datengine.train_s":        trainS / nt,
		"datengine.ship_s":         shipS / nt,
		"datengine.self_s":         (st.totalS("datengine.cycle") - label - trainS - shipS) / nt,
		"datengine.oracle_retries": b.metrics.Counter("learn_oracle_retries_total").Value() / nt,
		"datengine.quarantined":    b.metrics.Counter("learn_quarantined_total").Value() / nt,
		"lithosim.label_ms":        st.meanMS("lithosim.label"),
		"lithosim.simulations":     float64(b.sim.Stats().Simulations) / nt,
		"nn.train_epoch_ms":        mean(epochMS),
		"go.alloc_bytes_per_op":    allocB / float64(len(walls)),
		"go.gc_pause_ms":           pauseMS / float64(len(walls)),
		"trace.overhead_frac":      median(traced)/median(plain) - 1,
	}
	res.PerLayer = zeroFill(pl)
	return res, nil
}
