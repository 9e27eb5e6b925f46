package durable_test

// Golden fixtures: one file per on-disk format, each written once by
// the code that predates the shared durable substrate, in a fresh
// process, in the order model, checkpoint, learn WAL, quality sidecar,
// scan journal, suite. The tests below pin two properties across any
// refactor of the record code:
//
//   - every file decodes to the values it was written from;
//   - the writers reproduce the pinned formats byte for byte.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/iccad"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/scanfarm"
)

// Golden file names under testdata/.
const (
	goldenModel      = "model.hsdnn"      // HSDNNv2 framed network
	goldenLegacy     = "model_legacy.gob" // pre-frame raw gob network
	goldenCheckpoint = "checkpoint.hsdck" // HSDCKv1 training checkpoint
	goldenWAL        = "learn.wal"        // HSDLWh1/HSDLWr1 learn WAL
	goldenBaseline   = "model.qb"         // HSDQBv1 quality sidecar
	goldenJournal    = "scan.journal"     // HSDSJh1/HSDSJr1 scan journal
	goldenSuite      = "suite.gob"        // raw gob suite cache
)

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenNet is a CNN with every serializable layer kind (conv, batch
// norm, ReLU, max pool, dense, dropout) whose parameters follow a fixed
// formula of exact binary fractions.
func goldenNet(t testing.TB) *nn.Network {
	t.Helper()
	net, err := nn.BuildCNN(nn.CNNConfig{
		InC: 2, InH: 8, InW: 8, Conv1: 3, Conv2: 4, Hidden: 6,
		DropoutP: 0.2, BatchNorm: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, p := range net.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = float64(k%97)/32 - 1.5
			k++
		}
	}
	return net
}

// goldenCheckpointHistory is the per-epoch history recorded in the
// golden checkpoint (two Adam epochs on a two-sample set, fixed clock).
var goldenCheckpointHistory = []nn.EpochStats{
	{Epoch: 1, Loss: 0.7892721756285881, Acc: 0.5},
	{Epoch: 2, Loss: 0.7834735091625173, Acc: 0.5},
}

func goldenJournalMeta() scanfarm.Meta {
	return scanfarm.Meta{
		Chip: "chip", Shapes: 42, Bounds: geom.R(0, 0, 8192, 8192),
		ClipNM: 1024, CoreFrac: 0.5, StrideNM: 512, ShardRows: 2,
		NumShards: 8, SkipEmpty: true, Detector: "density",
	}
}

func goldenJournalRecords() []scanfarm.ShardRecord {
	return []scanfarm.ShardRecord{
		{ShardID: 0, State: scanfarm.ShardDone, Attempts: 1, Findings: []core.Finding{
			{Center: geom.Pt(256, 256), Score: 0.91},
			{Center: geom.Pt(768, 256), Score: 0.77},
		}},
		{ShardID: 3, State: scanfarm.ShardQuarantined, Attempts: 3, Err: "detector panic: poison window"},
		{ShardID: 1, State: scanfarm.ShardDone, Attempts: 2, Findings: []core.Finding{
			{Center: geom.Pt(256, 1280), Score: 0.5},
		}},
		{ShardID: 2, State: scanfarm.ShardDone, Attempts: 1},
	}
}

// goldenClip is a small clip whose geometry varies with i.
func goldenClip(i int) layout.Clip {
	return layout.Clip{
		Window: geom.R(0, 0, 512, 512),
		Core:   geom.R(128, 128, 384, 384),
		Shapes: []geom.Rect{
			geom.R(10+i, 20, 60+i, 52),
			geom.R(100, 40+2*i, 132, 200),
		},
	}
}

func goldenWALMeta() datengine.Meta { return datengine.Meta{Detector: "cnn"} }

func goldenWALRecords() []datengine.Record {
	var recs []datengine.Record
	for i := 0; i < 3; i++ {
		clip := goldenClip(i).Translate()
		recs = append(recs, datengine.Record{
			Kind: datengine.RecCandidate, FP: clip.Fingerprint(), Clip: clip,
			Score: 0.4 + float64(i)/100, Stage: "scan", Source: "low-conf",
		})
	}
	fps := []layout.Fingerprint{recs[0].FP, recs[2].FP}
	return append(recs,
		datengine.Record{Kind: datengine.RecBatch, BatchID: 0, FPs: fps},
		datengine.Record{Kind: datengine.RecLabel, BatchID: 0, FP: fps[0], Hotspot: true},
		datengine.Record{Kind: datengine.RecQuarantine, BatchID: 0, FP: fps[1], Attempts: 3, Err: "oracle panic: chaos"},
		datengine.Record{Kind: datengine.RecShipped, BatchID: 0, Outcome: datengine.OutcomeShipped, ModelPath: "m.net"},
	)
}

func goldenBaselineValue() *qualitymon.Baseline {
	return &qualitymon.Baseline{Entries: []qualitymon.BaselineEntry{
		qualitymon.NewBaselineEntry("MLP", "primary", []float64{0.1, 0.2, 0.2, 0.3, 0.8, 0.9}, 4),
		qualitymon.NewBaselineEntry("SVM", "fallback", []float64{0.4, 0.5, 0.6}, 4),
	}}
}

func goldenSuiteValue() *hsd.Suite {
	return &hsd.Suite{
		Benchmarks: []iccad.Benchmark{{
			Name: "G1",
			Train: iccad.Split{Samples: []iccad.Sample{
				{Clip: goldenClip(0), Hotspot: true, Family: "jog", PVBandArea: 1234.5},
				{Clip: goldenClip(1), Family: "line-end"},
			}},
			Test: iccad.Split{Samples: []iccad.Sample{
				{Clip: goldenClip(2), Family: "contact", PVBandArea: 0.25},
			}},
		}},
		Config: iccad.SuiteConfig{Seed: 7, ClipNM: 512, CoreFrac: 0.5},
	}
}

func paramsEqual(t *testing.T, got, want *nn.Network) {
	t.Helper()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("layers = %d, want %d", len(got.Layers), len(want.Layers))
	}
	for i := range got.Layers {
		if g, w := got.Layers[i].Name(), want.Layers[i].Name(); g != w {
			t.Fatalf("layer %d is %s, want %s", i, g, w)
		}
	}
	gp, wp := got.Params(), want.Params()
	if len(gp) != len(wp) {
		t.Fatalf("params = %d, want %d", len(gp), len(wp))
	}
	for i := range gp {
		if !reflect.DeepEqual(gp[i].W.Data, wp[i].W.Data) {
			t.Fatalf("param %d differs", i)
		}
	}
}

func TestGoldenModel(t *testing.T) {
	want := goldenNet(t)
	got, err := nn.LoadFile(goldenPath(goldenModel))
	if err != nil {
		t.Fatal(err)
	}
	paramsEqual(t, got, want)
	// The saved bytes are the pinned format: a resumed learning loop
	// ships a model byte-identical to an uninterrupted one only because
	// Save is a pure function of the network.
	var buf bytes.Buffer
	if err := nn.Save(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), readGolden(t, goldenModel)) {
		t.Fatalf("Save output (%d bytes) differs from the %s golden", buf.Len(), goldenModel)
	}
}

func TestGoldenLegacyNetwork(t *testing.T) {
	got, err := nn.LoadFile(goldenPath(goldenLegacy))
	if err != nil {
		t.Fatal(err)
	}
	paramsEqual(t, got, goldenNet(t))
}

func TestGoldenCheckpoint(t *testing.T) {
	raw := readGolden(t, goldenCheckpoint)
	c, err := nn.LoadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch != 2 || c.Seed != 1 {
		t.Fatalf("epoch %d seed %d, want 2 and 1", c.Epoch, c.Seed)
	}
	if !reflect.DeepEqual(c.History, goldenCheckpointHistory) {
		t.Fatalf("history %+v, want %+v", c.History, goldenCheckpointHistory)
	}
	// Weights, dropout RNG position and optimizer slots are unexported;
	// re-saving reproduces the golden only if every one of them decoded.
	var buf bytes.Buffer
	if err := nn.SaveCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("re-saved checkpoint differs from the golden")
	}
}

func TestGoldenWAL(t *testing.T) {
	meta, recs, off, err := datengine.LoadWAL(goldenPath(goldenWAL))
	if err != nil {
		t.Fatal(err)
	}
	if meta != goldenWALMeta() {
		t.Fatalf("meta %+v, want %+v", meta, goldenWALMeta())
	}
	if !reflect.DeepEqual(recs, goldenWALRecords()) {
		t.Fatalf("records %+v, want %+v", recs, goldenWALRecords())
	}
	if off != int64(len(readGolden(t, goldenWAL))) {
		t.Fatalf("intact offset %d, want the whole file", off)
	}
}

func TestGoldenBaseline(t *testing.T) {
	got, err := qualitymon.LoadBaselineFile(goldenPath(goldenBaseline))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenBaselineValue()
	want.Version = 1
	want.Sort()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline %+v, want %+v", got, want)
	}
}

func TestGoldenJournal(t *testing.T) {
	meta, recs, off, err := scanfarm.LoadJournal(goldenPath(goldenJournal))
	if err != nil {
		t.Fatal(err)
	}
	if meta != goldenJournalMeta() {
		t.Fatalf("meta %+v, want %+v", meta, goldenJournalMeta())
	}
	want := goldenJournalRecords()
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for _, w := range want {
		if !reflect.DeepEqual(recs[w.ShardID], w) {
			t.Fatalf("shard %d: %+v, want %+v", w.ShardID, recs[w.ShardID], w)
		}
	}
	if off != int64(len(readGolden(t, goldenJournal))) {
		t.Fatalf("intact offset %d, want the whole file", off)
	}
}

func TestGoldenSuite(t *testing.T) {
	f, err := os.Open(goldenPath(goldenSuite))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := hsd.LoadSuite(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenSuiteValue(); !reflect.DeepEqual(got, want) {
		t.Fatalf("suite %+v, want %+v", got, want)
	}
}
