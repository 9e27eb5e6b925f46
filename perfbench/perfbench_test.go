package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/serve"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Command   []string                `json:"command"`
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nbenchmark emits:\n%v", bj.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nbenchmark emits:\n%v", bj.PerLayer, perLayerMetrics)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark implements %d", names, len(workloads))
	}
}

// emitted renders a result through finalLine and returns the metric
// names of the JSON line.
func emitted(t *testing.T, res *result) map[string]metricValue {
	t.Helper()
	line, err := finalLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var out finalResult
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	return out.Metrics
}

func TestFinalLineEmitsExactlyTheListedMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	ok := []phaseCount{{Name: "x", Sent: 3, Succeeded: 3}}
	e2e := map[string]float64{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = 1.5
	}
	got := emitted(t, &result{Workload: "w", EndToEnd: e2e, Phases: ok})
	if len(got) != len(bj.EndToEnd) {
		t.Fatalf("untraced line has %d metrics, BENCHMARK.json lists %d", len(got), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		if got[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got[m.Name].Unit, m.Unit)
		}
	}
	got = emitted(t, &result{Workload: "w", Traced: true, PerLayer: zeroFill(map[string]float64{}), Phases: ok})
	if len(got) != len(bj.PerLayer) {
		t.Fatalf("traced line has %d metrics, BENCHMARK.json lists %d", len(got), len(bj.PerLayer))
	}

	delete(e2e, "setup_s")
	if _, err := finalLine(&result{Workload: "w", EndToEnd: e2e, Phases: ok}); err == nil {
		t.Error("a result missing setup_s was emitted")
	}
	e2e["setup_s"], e2e["extra"] = 1, 1
	if _, err := finalLine(&result{Workload: "w", EndToEnd: e2e, Phases: ok}); err == nil {
		t.Error("a result with an unlisted metric was emitted")
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []serveReq {
		rng := subRNG(seed, "open")
		out := make([]serveReq, 64)
		for i := range out {
			out[i] = drawRequest(rng, 155)
		}
		return out
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Error("request stream differs between runs of one seed")
	}
	if reflect.DeepEqual(draw(3), draw(4)) {
		t.Error("request streams of seeds 3 and 4 are identical")
	}

	chip := func(seed int64, j int) []geom.Rect {
		c, err := buildChip(seed, j)
		if err != nil {
			t.Fatal(err)
		}
		return c.Shapes()
	}
	if !reflect.DeepEqual(chip(3, 0), chip(3, 0)) {
		t.Error("chip differs between runs of one seed")
	}
	if reflect.DeepEqual(chip(3, 0), chip(4, 0)) || reflect.DeepEqual(chip(3, 0), chip(3, 1)) {
		t.Error("different seeds or jobs built the same chip")
	}

	var samples []hsd.Sample
	for i := 0; i < 50; i++ {
		samples = append(samples, hsd.Sample{Clip: layout.Clip{Window: geom.R(i, 0, i+1, 1)}})
	}
	if !reflect.DeepEqual(learnPool(samples, 3), learnPool(samples, 3)) {
		t.Error("candidate pool differs between runs of one seed")
	}
	if reflect.DeepEqual(learnPool(samples, 3), learnPool(samples, 4)) {
		t.Error("candidate pools of seeds 3 and 4 are identical")
	}
}

// fakeServer answers /score and /batch with the verdict hot(body) and
// fails requests whose body fail(body) selects.
func fakeServer(hot, fail func(body string) bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil || fail(string(b)) {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(serve.ScoreResponse{Hotspot: hot(string(b))})
	}))
}

func failFrac(t *tally) float64 {
	c := t.count()
	return ratio(float64(c.Failed), float64(c.Sent))
}

func TestWrongVerdictOrFailedRequestRaisesFailFrac(t *testing.T) {
	pool := []serveClip{
		{body: []byte("hot"), expect: true},
		{body: []byte("cold"), expect: false},
	}
	never := func(string) bool { return false }
	honest := func(b string) bool { return b == "hot" }
	cases := []struct {
		name      string
		hot, fail func(string) bool
		wantFail  bool
	}{
		{"correct", honest, never, false},
		{"wrong verdict", func(b string) bool { return b != "hot" }, never, true},
		{"failed request", honest, func(b string) bool { return b == "cold" }, true},
	}
	for _, tc := range cases {
		srv := fakeServer(tc.hot, tc.fail)
		cl := newClient(srv.URL, pool, nil)
		closed := &tally{name: "closed"}
		cl.closedLoop(1, "closed", 50*time.Millisecond, closed)
		open := &tally{name: "open"}
		cl.openLoop(1, "open", 400, 50*time.Millisecond, open)
		cl.close()
		srv.Close()
		res := &result{Phases: []phaseCount{closed.count(), open.count()}}
		att, failed := res.counts()
		if att == 0 {
			t.Fatalf("%s: no request was sent", tc.name)
		}
		if got := failed > 0; got != tc.wantFail {
			t.Errorf("%s: fail_frac closed=%.3f open=%.3f, want failures=%v", tc.name, failFrac(closed), failFrac(open), tc.wantFail)
		}
	}
}

// Fake detectors with each interface set the wrappers support.
type plainFake struct{}

func (plainFake) Name() string                       { return "plain" }
func (plainFake) Fit([]core.LabeledClip) error       { return nil }
func (plainFake) Threshold() float64                 { return 0.5 }
func (plainFake) Score(layout.Clip) (float64, error) { return 1, nil }

type ctxFake struct{ plainFake }

func (ctxFake) ScoreCtx(context.Context, layout.Clip) (float64, error) { return 1, nil }

type fullFake struct {
	ctxFake
	clones *atomic.Int64
}

func (f fullFake) CloneDetector() core.Detector { f.clones.Add(1); return f }
func (fullFake) ScoreBatch(c []layout.Clip) ([]float64, error) {
	return make([]float64, len(c)), nil
}
func (fullFake) ScoreBatchCtx(_ context.Context, c []layout.Clip) ([]float64, error) {
	return make([]float64, len(c)), nil
}

type batchOnlyFake struct{ plainFake }

func (batchOnlyFake) ScoreBatch(c []layout.Clip) ([]float64, error) { return nil, nil }

// interfaces lists which optional detector interfaces d implements.
func interfaces(d core.Detector) [4]bool {
	_, cs := d.(core.CtxScorer)
	_, cl := d.(core.Cloner)
	_, bs := d.(core.BatchScorer)
	_, cbs := d.(core.CtxBatchScorer)
	return [4]bool{cs, cl, bs, cbs}
}

func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	clones := &atomic.Int64{}
	for _, d := range []core.Detector{plainFake{}, ctxFake{}, fullFake{clones: clones}} {
		w, err := wrapDetector(d, rec, "router.score")
		if err != nil {
			t.Fatal(err)
		}
		if interfaces(w) != interfaces(d) {
			t.Errorf("%T: wrapper implements %v, detector %v", d, interfaces(w), interfaces(d))
		}
		if _, err := core.ScoreClipCtx(context.Background(), w, layout.Clip{}); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := wrapDetector(fullFake{clones: clones}, rec, "router.score")
	c := w.(core.Cloner).CloneDetector()
	if clones.Load() != 1 || interfaces(c) != interfaces(w) {
		t.Errorf("clone of a wrapper: inner clones %d, interfaces %v", clones.Load(), interfaces(c))
	}
	if _, err := wrapDetector(batchOnlyFake{}, rec, "x"); err == nil {
		t.Error("a detector with an unsupported interface set was wrapped")
	}
	if n := len(rec.stats()["router.score"]); n != 3 {
		t.Errorf("recorded %d router.score spans, want 3", n)
	}

	dct := &features.DCT{Blocks: 4, Coefs: 4}
	if _, ok := wrapExtractor(dct, rec, "features.dct").(features.CtxExtractor); !ok {
		t.Error("wrapper hid CtxExtractor")
	}
	if _, ok := wrapExtractor(plainExtractorFake{}, rec, "x").(features.CtxExtractor); ok {
		t.Error("wrapper invented CtxExtractor")
	}
}

type plainExtractorFake struct{}

func (plainExtractorFake) Name() string                           { return "fake" }
func (plainExtractorFake) Dim() int                               { return 1 }
func (plainExtractorFake) Extract(layout.Clip) ([]float64, error) { return []float64{0}, nil }

func TestSummaryTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := summarize(xs)
	if s.N != 100 || s.TailPct != 90 || s.P50 != 49.5 {
		t.Errorf("summary of 0..99 = %+v, want n=100 p50=49.5 tail at p90", s)
	}
	if s := summarize(xs[:15]); s.TailPct != 0 {
		t.Errorf("15 samples reported a tail at p%g", s.TailPct)
	}
}

func TestSpansNestUnderTheirOperation(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	ctx := withOp(context.Background(), "job-7")
	ctx, endOuter := rec.begin(ctx, "scanfarm.run")
	_, endInner := rec.begin(ctx, "router.score")
	endInner()
	endOuter()
	rec.on.Store(false)
	_, endOff := rec.begin(ctx, "ignored")
	endOff()
	spans := rec.snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	inner, outer := spans[0], spans[1]
	if inner.Parent != outer.ID || outer.Parent != 0 || inner.Op != "job-7" || outer.Op != "job-7" {
		t.Errorf("spans %+v %+v do not nest under job-7", inner, outer)
	}
	var nilRec *recorder
	if _, end := nilRec.begin(ctx, "x"); end == nil {
		t.Error("nil recorder returned no end func")
	}
}
