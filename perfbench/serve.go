package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/lithosim"
	"github.com/golitho/hsd/internal/router"
	"github.com/golitho/hsd/internal/serve"
	"github.com/golitho/hsd/internal/trace"
)

// serveClients is the load generator's connection and worker count:
// one per vCPU of the reference box, so the generator never outnumbers
// the cores it shares with the server.
const serveClients = 2

// Headers carrying a traced client span to the server-side handler span.
const (
	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

// serveEnv is one running in-process server configured as hsdserve runs
// by default: Router primary, AdaBoost fallback, tracing on, micro-
// batching at 32 clips / 2 ms.
type serveEnv struct {
	router *router.Router
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	pool   []serveClip
}

// serveClip is one test clip as a request body, with the verdict the
// server must return and, when labeled is set, the ground-truth label
// of the clip the server parses.
type serveClip struct {
	body    []byte
	expect  bool
	labeled bool
	label   bool
}

func startServe(rec *recorder) (*serveEnv, error) {
	suite, err := generateSuite()
	if err != nil {
		return nil, err
	}
	bench := &suite.Benchmarks[0]
	det, err := trainZoo("Router", bench)
	if err != nil {
		return nil, err
	}
	rt := det.(*router.Router)
	fallback, err := trainZoo("AdaBoost", bench)
	if err != nil {
		return nil, err
	}
	primary := core.Detector(rt)
	if rec != nil {
		instrumentRouter(rt, rec)
		if primary, err = wrapDetector(rt, rec, "router.score"); err != nil {
			return nil, err
		}
	}
	sim, err := lithosim.New(lithosim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{
		Primary:      primary,
		Fallback:     fallback,
		Sim:          sim,
		ClipNM:       suite.Config.ClipNM,
		CoreFrac:     suite.Config.CoreFrac,
		BatchMaxSize: 32,
		BatchMaxWait: 2 * time.Millisecond,
		Trace:        &trace.Config{Capacity: 256, SampleRate: 1},
	})
	if err != nil {
		return nil, err
	}
	rt.BindMetrics(srv.Metrics())
	h := srv.Handler()
	if rec != nil {
		h = tracedHandler(h, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		router: rt,
		srv:    srv,
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
			MaxHeaderBytes:    1 << 20,
		},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { env.served <- env.hs.Serve(ln) }()
	if err := env.waitHealthy(); err != nil {
		env.close()
		return nil, err
	}
	env.pool, err = servePool(testSamples(suite), rt, suite.Config.ClipNM, suite.Config.CoreFrac)
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *serveEnv) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(e.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a failed drain leaves nothing to clean up
	<-e.served
}

// instrumentRouter wraps the feature extractors of the router's stages
// so the traced run times shallow and DCT feature extraction.
func instrumentRouter(rt *router.Router, rec *recorder) {
	for _, st := range rt.Stages() {
		switch d := st.Detector.(type) {
		case *core.BoostDetector:
			d.Ex = wrapExtractor(d.Ex, rec, "features.shallow")
		case *core.NeuralDetector:
			d.Ex = wrapExtractor(d.Ex, rec, "features.dct")
		}
	}
}

// tracedHandler opens a serve.handler span under the client span named
// by the request headers.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := spanRef{op: r.Header.Get(opHeader)}
		parent.id, _ = strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		ctx, end := rec.beginUnder(r.Context(), parent, "serve.handler")
		h.ServeHTTP(w, r.WithContext(ctx))
		end()
	})
}

// servePool renders test clips as GLT request bodies. The served
// verdict must equal in-process core.Predict of the same detector on
// the clip the server parses from the body. The server re-centres a
// body's geometry, so the test label applies only to clips that survive
// that round trip unchanged; recall and false alarms are scored on
// those.
func servePool(samples []hsd.Sample, rt *router.Router, clipNM int, coreFrac float64) ([]serveClip, error) {
	ref := rt.CloneDetector()
	var pool []serveClip
	for _, s := range samples {
		body, err := gltBody(s.Clip)
		if err != nil {
			return nil, err
		}
		clip, err := serverClip(body, clipNM, coreFrac)
		if err != nil {
			return nil, err
		}
		expect, err := core.Predict(ref, clip)
		if err != nil {
			return nil, err
		}
		pool = append(pool, serveClip{
			body:    body,
			expect:  expect,
			labeled: clipKey(clip) == clipKey(s.Clip),
			label:   s.Hotspot,
		})
	}
	rt.ResetStats()
	return pool, nil
}

func gltBody(c layout.Clip) ([]byte, error) {
	l := layout.New("clip")
	for _, r := range c.Shapes {
		if err := l.AddRect(r); err != nil {
			return nil, err
		}
	}
	var b bytes.Buffer
	if err := layout.Write(&b, l); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// serverClip parses a body into a clip exactly as the server's /score
// and /batch handlers do.
func serverClip(body []byte, clipNM int, coreFrac float64) (layout.Clip, error) {
	l, err := layout.Read(bytes.NewReader(body))
	if err != nil {
		return layout.Clip{}, err
	}
	c := l.Bounds().Center()
	return l.ClipAt(geom.Pt(c.X, c.Y), clipNM, coreFrac)
}

// serveReq is one generated request: which clip, to which endpoint.
type serveReq struct {
	clip  int
	batch bool
}

// drawRequest draws the next request of a stream: a uniformly chosen
// pool clip, sent to /score or /batch with equal probability.
func drawRequest(rng *rand.Rand, poolSize int) serveReq {
	return serveReq{clip: rng.Intn(poolSize), batch: rng.Intn(2) == 1}
}

// client is the load generator's HTTP side: at most serveClients
// connections, every response checked against the expected verdict.
type client struct {
	hc       *http.Client
	url      string
	pool     []serveClip
	rec      *recorder
	verdicts []atomic.Int32 // per pool clip: 0 unseen, 1 cold, 2 hot
	degraded atomic.Int64
	answered atomic.Int64
}

func newClient(url string, pool []serveClip, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}
	return &client{
		hc:       &http.Client{Transport: tr, Timeout: 60 * time.Second},
		url:      url,
		pool:     pool,
		rec:      rec,
		verdicts: make([]atomic.Int32, len(pool)),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reports whether it returned the expected
// verdict. A transport error, a non-200 status, an unparsable body or a
// verdict that differs from in-process core.Predict all fail the
// request.
func (c *client) do(ctx context.Context, r serveReq) bool {
	path := "/score"
	if r.batch {
		path = "/batch"
	}
	ctx, end := c.rec.begin(ctx, "loadgen.request")
	defer end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(c.pool[r.clip].body))
	if err != nil {
		return false
	}
	if ref := parentOf(ctx); ref.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10))
		req.Header.Set(opHeader, ref.op)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	var sr serve.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return false
	}
	c.answered.Add(1)
	if sr.Degraded {
		c.degraded.Add(1)
	}
	v := int32(1)
	if sr.Hotspot {
		v = 2
	}
	c.verdicts[r.clip].CompareAndSwap(0, v)
	return sr.Hotspot == c.pool[r.clip].expect
}

// rateSlice is the interval a closed loop's completion rate is counted
// over; the loop reports the median slice, so a burst of interference
// from outside the benchmark moves one slice instead of the whole rate.
const rateSlice = 250 * time.Millisecond

// closedLoop runs serveClients clients back to back for dur and returns
// the rate of correctly answered requests in each rateSlice and every
// request's latency in ms.
func (c *client) closedLoop(seed int64, stream string, dur time.Duration, t *tally) ([]float64, []float64) {
	var (
		mu   sync.Mutex
		lats []float64
		done []time.Duration // completion offsets of correct answers
		wg   sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < serveClients; w++ {
		rng := subRNG(seed, fmt.Sprintf("%s/client%d", stream, w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []float64
			var localDone []time.Duration
			for i := 0; time.Now().Before(stop); i++ {
				r := drawRequest(rng, len(c.pool))
				ctx := withOp(context.Background(), fmt.Sprintf("%s-%d-%d", stream, w, i))
				t0 := time.Now()
				ok := c.do(ctx, r)
				local = append(local, float64(time.Since(t0))/1e6)
				t.record(ok)
				if ok {
					localDone = append(localDone, time.Since(start))
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			done = append(done, localDone...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return sliceRates(done, dur, rateSlice), lats
}

// sliceRates splits [0, dur) into whole slices of width w (at least
// one) and returns the events per second in each.
func sliceRates(events []time.Duration, dur, w time.Duration) []float64 {
	n := int(dur / w)
	if n < 1 {
		n, w = 1, dur
	}
	rates := make([]float64, n)
	for _, e := range events {
		if i := int(e / w); i < n {
			rates[i] += 1 / w.Seconds()
		}
	}
	return rates
}

// openResult is one open-loop phase: latencies from each request's due
// time per endpoint, how late an idle generator woke for a request, and
// how late each request was sent.
type openResult struct {
	score, batch []float64
	wakeLag      []float64
	sendLag      []float64
}

func (r *openResult) merge(o openResult) {
	r.score = append(r.score, o.score...)
	r.batch = append(r.batch, o.batch...)
	r.wakeLag = append(r.wakeLag, o.wakeLag...)
	r.sendLag = append(r.sendLag, o.sendLag...)
}

// openLoop sends requests at a fixed rate for dur. Requests are due at
// evenly spaced instants; serveClients workers take them in order, so a
// request waits when both connections are busy and its latency, timed
// from when it was due, includes that wait.
func (c *client) openLoop(seed int64, stream string, rate float64, dur time.Duration, t *tally) openResult {
	n := int(rate * dur.Seconds())
	rng := subRNG(seed, stream)
	reqs := make([]serveReq, n)
	for i := range reqs {
		reqs[i] = drawRequest(rng, len(c.pool))
	}
	interval := time.Duration(float64(time.Second) / rate)
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  openResult
		wg   sync.WaitGroup
	)
	start := time.Now().Add(interval)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local openResult
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					local.wakeLag = append(local.wakeLag, float64(time.Since(due))/1e6)
				}
				local.sendLag = append(local.sendLag, float64(time.Since(due))/1e6)
				ok := c.do(withOp(context.Background(), fmt.Sprintf("%s-%d", stream, i)), reqs[i])
				lat := float64(time.Since(due)) / 1e6
				t.record(ok)
				if reqs[i].batch {
					local.batch = append(local.batch, lat)
				} else {
					local.score = append(local.score, lat)
				}
			}
			mu.Lock()
			res.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// quality scores the first served verdict of every clip against its
// test label.
func (c *client) quality() (recall, falseAlarmRate float64, clips int) {
	var tp, fn, fp, tn float64
	for i := range c.verdicts {
		v := c.verdicts[i].Load()
		if v == 0 || !c.pool[i].labeled {
			continue
		}
		clips++
		hot := v == 2
		switch {
		case c.pool[i].label && hot:
			tp++
		case c.pool[i].label:
			fn++
		case hot:
			fp++
		default:
			tn++
		}
	}
	return ratio(tp, tp+fn), ratio(fp, fp+tn), clips
}

// serveWarmup is the untimed traffic before a server's first measured
// phase: it fills connection pools, arenas and the batcher's goroutines.
const serveWarmup = 500 * time.Millisecond

func runServe(o options, rec *recorder) (*result, error) {
	if rec != nil {
		return runServeTraced(o, rec)
	}
	// Each set-up is followed by its share of the measurement, so the
	// measured seconds are spread over the whole run rather than its end.
	res := &result{Timings: map[string]summary{}}
	total := time.Duration(o.seconds * float64(time.Second))
	warm, closed, open := &tally{name: "warmup"}, &tally{name: "closed"}, &tally{name: "open"}
	var rates, lats []float64
	var or openResult
	var recall, far float64
	var clips int
	speed := &speedMeter{}
	for k := 0; k < setupRuns; k++ {
		env, secs, err := timed(func() (*serveEnv, error) { return startServe(nil) })
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, secs)
		if err := speed.sample(); err != nil {
			return nil, err
		}
		cl := newClient(env.url, env.pool, nil)
		cl.closedLoop(o.seed, fmt.Sprintf("warmup%d", k), serveWarmup, warm)
		r, l := cl.closedLoop(o.seed, fmt.Sprintf("closed%d", k), total*3/5/setupRuns, closed)
		rates, lats = append(rates, r...), append(lats, l...)
		or.merge(cl.openLoop(o.seed, fmt.Sprintf("open%d", k), o.serveRate, total*2/5/setupRuns, open))
		recall, far, clips = cl.quality()
		cl.close()
		env.close()
		if err := speed.sample(); err != nil {
			return nil, err
		}
	}
	res.SpeedFactor = speed.factor()
	res.Phases = append(res.Phases, warm.count(), closed.count(), open.count())

	rps := median(rates)
	all := append(append([]float64(nil), or.score...), or.batch...)
	res.EndToEnd = map[string]float64{
		"throughput_per_s": rps,
		"latency_p50_ms":   summarize(all).P50,
	}
	score, batch := summarize(or.score), summarize(or.batch)
	res.Timings["closed.request_ms"] = summarize(lats)
	res.Timings["open.score_ms"] = score
	res.Timings["open.batch_ms"] = batch
	res.Timings["open.all_ms"] = summarize(all)
	res.Timings["open.send_lag_ms"] = summarize(or.sendLag)
	res.add("serve_rps", rps, "req/s", len(lats))
	res.add("score_p50_ms", score.P50, "ms", score.N)
	res.add(fmt.Sprintf("score_p%g_ms", score.TailPct), score.Tail, "ms", score.N)
	res.add("batch_p50_ms", batch.P50, "ms", batch.N)
	res.add(fmt.Sprintf("batch_p%g_ms", batch.TailPct), batch.Tail, "ms", batch.N)
	res.add("recall", recall, "ratio", clips)
	res.add("false_alarm_rate", far, "ratio", clips)
	return res, nil
}

// runServeTraced measures the per-layer metrics on one server:
// closed-loop slices alternate untraced and traced so the overhead
// comparison sees the same machine state, then one traced open-loop
// phase gives the per-layer latencies.
func runServeTraced(o options, rec *recorder) (*result, error) {
	env, err := startServe(rec)
	if err != nil {
		return nil, err
	}
	defer env.close()
	cl := newClient(env.url, env.pool, rec)
	defer cl.close()
	res := &result{Timings: map[string]summary{}}
	warm := &tally{name: "warmup"}
	cl.closedLoop(o.seed, "warmup", serveWarmup, warm)
	res.Phases = append(res.Phases, warm.count())

	total := time.Duration(o.seconds * float64(time.Second))
	mem := startMem()
	env.router.ResetStats()
	reg := env.srv.Metrics()
	batchSize := reg.Histogram("batch_size", nil)
	batchLat := reg.Histogram("batch_latency_seconds", nil)
	bsCount0, bsSum0 := batchSize.Count(), batchSize.Sum()
	blCount0, blSum0 := batchLat.Count(), batchLat.Sum()
	cl.degraded.Store(0)
	cl.answered.Store(0)

	var plainRates, tracedRates []float64
	for i := 0; i < 4; i++ {
		traced := i%2 == 1
		rec.on.Store(traced)
		t := &tally{name: fmt.Sprintf("closed-%d", i)}
		rates, _ := cl.closedLoop(o.seed, fmt.Sprintf("closed%d", i), total/8, t)
		res.Phases = append(res.Phases, t.count())
		if traced {
			tracedRates = append(tracedRates, rates...)
		} else {
			plainRates = append(plainRates, rates...)
		}
	}
	rec.on.Store(true)
	open := &tally{name: "open"}
	or := cl.openLoop(o.seed, "open", o.serveRate, total/2, open)
	rec.on.Store(false)
	res.Phases = append(res.Phases, open.count())

	var ops int64
	for _, p := range res.Phases[1:] {
		ops += p.Sent
	}
	alloc, pause := mem.perOp(ops)
	handler := rec.filtered("serve.handler", "open-")
	pl := routerLayers(env.router, rec.stats())
	pl["serve.handler_p50_ms"] = handler.p50MS("serve.handler")
	pl["serve.batch_size_mean"] = ratio(batchSize.Sum()-bsSum0, float64(batchSize.Count()-bsCount0))
	pl["serve.batch_pass_ms"] = 1000 * ratio(batchLat.Sum()-blSum0, float64(batchLat.Count()-blCount0))
	pl["resilience.fallback_frac"] = ratio(float64(cl.degraded.Load()), float64(cl.answered.Load()))
	pl["go.alloc_bytes_per_op"] = alloc
	pl["go.gc_pause_ms"] = pause
	pl["loadgen.lag_p99_ms"] = quantileOf(or.wakeLag, 0.99)
	pl["trace.overhead_frac"] = 1 - median(tracedRates)/median(plainRates)
	res.PerLayer = zeroFill(pl)
	res.Timings["open.wake_lag_ms"] = summarize(or.wakeLag)
	return res, nil
}

// routerLayers derives the router, features and nn per-layer metrics
// from the router's stage counters and the extractor spans.
func routerLayers(rt *router.Router, st spanStats) map[string]float64 {
	pl := map[string]float64{}
	stats := rt.Stats()
	entered := func(s router.StageStats) float64 { return float64(s.Answered() + s.Escalated) }
	stageMS := func(s router.StageStats) float64 { return 1000 * ratio(s.Seconds, entered(s)) }
	if len(stats) == 3 {
		pl["router.escalation_frac"] = ratio(entered(stats[2]), entered(stats[0]))
		pl["router.pm_ms"] = stageMS(stats[0])
		pl["router.boost_ms"] = stageMS(stats[1])
		pl["router.cnn_ms"] = stageMS(stats[2])
	}
	pl["features.dct_ms"] = st.meanMS("features.dct")
	pl["features.shallow_ms"] = st.meanMS("features.shallow")
	pl["nn.infer_ms"] = pl["router.cnn_ms"] - pl["features.dct_ms"]
	return pl
}

// zeroFill adds every per-layer metric a workload does not exercise
// with value 0.
func zeroFill(pl map[string]float64) map[string]float64 {
	for _, d := range perLayerMetrics {
		if _, ok := pl[d.Name]; !ok {
			pl[d.Name] = 0
		}
	}
	return pl
}
