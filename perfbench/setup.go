package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/layout"
)

// generateSuite builds the miniature two-benchmark suite every workload
// trains on.
func generateSuite() (*hsd.Suite, error) {
	return hsd.GenerateSuite(hsd.SmallSuiteConfig(suiteSeed))
}

// zooSpec looks up a zoo detector configuration by name.
func zooSpec(name string) (hsd.DetectorSpec, error) {
	for _, s := range hsd.SurveyZoo(suiteSeed) {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return hsd.DetectorSpec{}, fmt.Errorf("detector %q not in zoo", name)
}

// trainZoo trains a zoo detector on the benchmark's training split the
// way the CLIs do: the spec's augmentation, then Fit.
func trainZoo(name string, bench *hsd.Benchmark) (core.Detector, error) {
	spec, err := zooSpec(name)
	if err != nil {
		return nil, err
	}
	det := spec.New()
	train := hsd.AugmentMinority(hsd.FromSamples(bench.Train.Samples), spec.Augment)
	if err := det.Fit(train); err != nil {
		return nil, fmt.Errorf("train %s: %w", name, err)
	}
	return det, nil
}

// testSamples returns the test split of every benchmark in the suite,
// in suite order: the traffic the workloads draw from.
func testSamples(s *hsd.Suite) []hsd.Sample {
	var out []hsd.Sample
	for _, b := range s.Benchmarks {
		out = append(out, b.Test.Samples...)
	}
	return out
}

// goldenSet picks up to n clips from the benchmark's test split for the
// registry gate, alternating classes, as hsdserve and hsdlearn do.
func goldenSet(bench *hsd.Benchmark, n int) []hsd.LabeledClip {
	all := hsd.FromSamples(bench.Test.Samples)
	var hot, cold []hsd.LabeledClip
	for _, s := range all {
		if s.Hotspot {
			hot = append(hot, s)
		} else {
			cold = append(cold, s)
		}
	}
	out := make([]hsd.LabeledClip, 0, n)
	for i := 0; len(out) < n && (i < len(hot) || i < len(cold)); i++ {
		if i < len(hot) {
			out = append(out, hot[i])
		}
		if len(out) < n && i < len(cold) {
			out = append(out, cold[i])
		}
	}
	return out
}

// timed runs one set-up after a garbage collection and returns what it
// built and its duration in seconds.
func timed[T any](setup func() (T, error)) (T, float64, error) {
	runtime.GC()
	t0 := time.Now()
	v, err := setup()
	return v, time.Since(t0).Seconds(), err
}

// subRNG derives an independent deterministic stream for one purpose of
// one run, so adding a draw to one stream never shifts another.
func subRNG(seed int64, stream string) *rand.Rand {
	h := uint64(1469598103934665603)
	for _, c := range []byte(stream) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h&0x7fffffffffffffff)))
}

// memDelta measures allocation and GC pause over a stretch of a run.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// perOp returns bytes allocated and GC pause in ms per operation since
// startMem.
func (m *memDelta) perOp(ops int64) (allocBytes, gcPauseMS float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - m.before.TotalAlloc)
	pause := float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
	return ratio(alloc, float64(ops)), ratio(pause, float64(ops))
}

// clipKey identifies a clip's geometry independent of its position.
func clipKey(c layout.Clip) layout.Fingerprint { return c.Translate().Fingerprint() }
