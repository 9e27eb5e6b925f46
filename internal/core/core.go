// Package core ties the hotspot-detection stack together: a unified
// Detector interface over the shallow and deep classifiers, minority-class
// augmentation, the contest evaluation harness (accuracy / false alarms /
// ODST), and a parallel full-chip scanner.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/golitho/hsd/internal/boost"
	"github.com/golitho/hsd/internal/dtree"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/logreg"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/pm"
	"github.com/golitho/hsd/internal/svm"
)

// LabeledClip is one training or evaluation sample.
type LabeledClip struct {
	Clip    layout.Clip
	Hotspot bool
}

// Detector is a trainable hotspot classifier over layout clips.
// Implementations are safe for concurrent Score calls after Fit unless
// they also implement Cloner, in which case callers must give each
// goroutine its own clone.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Fit trains on labelled clips.
	Fit(train []LabeledClip) error
	// Score returns a hotspot likelihood; higher means more suspicious.
	Score(clip layout.Clip) (float64, error)
	// Threshold is the decision cut: Score >= Threshold flags a hotspot.
	Threshold() float64
}

// Cloner is implemented by detectors whose Score is not concurrency-safe;
// each goroutine must use its own clone.
type Cloner interface {
	CloneDetector() Detector
}

// BatchScorer is implemented by detectors with a vectorized scoring path.
// ScoreBatch returns one score per clip, in input order, identical to
// what Score would return for each clip alone. Implementations must be
// safe for concurrent use after Fit — even when the detector is also a
// Cloner — so servers can batch across requests without cloning.
type BatchScorer interface {
	ScoreBatch(clips []layout.Clip) ([]float64, error)
}

// ScoreClips scores every clip through the detector's fastest safe path:
// the vectorized BatchScorer when available, otherwise sequential Score.
func ScoreClips(d Detector, clips []layout.Clip) ([]float64, error) {
	if bs, ok := d.(BatchScorer); ok {
		return bs.ScoreBatch(clips)
	}
	out := make([]float64, len(clips))
	for i, clip := range clips {
		s, err := d.Score(clip)
		if err != nil {
			return nil, fmt.Errorf("core: score clip %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// Predict applies the detector's threshold to a clip.
func Predict(d Detector, clip layout.Clip) (bool, error) {
	s, err := d.Score(clip)
	if err != nil {
		return false, err
	}
	return s >= d.Threshold(), nil
}

// AugmentConfig controls minority-class augmentation, the imbalance
// treatment of the deep hotspot literature (upsampling + mirror flips).
type AugmentConfig struct {
	// UpsampleFactor duplicates each hotspot clip this many times in
	// total (1 = no upsampling).
	UpsampleFactor int
	// Mirror adds X- and Y-mirrored variants of hotspot clips.
	Mirror bool
	// Rotate adds the 90-degree rotation of hotspot clips.
	Rotate bool
}

// AugmentMinority expands the hotspot class of a training set. Geometry
// transforms preserve printability, so labels carry over. The result
// interleaves originals first, then augmented copies.
func AugmentMinority(train []LabeledClip, cfg AugmentConfig) []LabeledClip {
	out := make([]LabeledClip, len(train))
	copy(out, train)
	if cfg.UpsampleFactor < 1 {
		cfg.UpsampleFactor = 1
	}
	for _, s := range train {
		if !s.Hotspot {
			continue
		}
		variants := []layout.Clip{}
		if cfg.Mirror {
			variants = append(variants, features.MirrorClipX(s.Clip), features.MirrorClipY(s.Clip))
		}
		if cfg.Rotate {
			variants = append(variants, features.Rotate90Clip(s.Clip))
		}
		// Duplicate the original up to the upsample factor, cycling
		// through transformed variants for diversity when available.
		for k := 1; k < cfg.UpsampleFactor; k++ {
			clip := s.Clip
			if len(variants) > 0 {
				clip = variants[(k-1)%len(variants)]
			}
			out = append(out, LabeledClip{Clip: clip, Hotspot: true})
		}
		// Always include each variant at least once.
		for i, v := range variants {
			if cfg.UpsampleFactor-1 > i {
				continue // already emitted by the cycle above
			}
			out = append(out, LabeledClip{Clip: v, Hotspot: true})
		}
	}
	return out
}

// scaler standardizes feature vectors to zero mean and unit variance,
// fitted on training data. Constant features pass through unchanged.
type scaler struct {
	mean, invStd []float64
}

func fitScaler(x [][]float64) *scaler {
	if len(x) == 0 {
		return &scaler{}
	}
	dim := len(x[0])
	s := &scaler{mean: make([]float64, dim), invStd: make([]float64, dim)}
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.invStd[j] += d * d
		}
	}
	for j := range s.invStd {
		sd := math.Sqrt(s.invStd[j] / float64(len(x)))
		if sd < 1e-9 {
			s.invStd[j] = 1
		} else {
			s.invStd[j] = 1 / sd
		}
	}
	return s
}

func (s *scaler) apply(x []float64) []float64 {
	if s.mean == nil {
		return x
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) * s.invStd[j]
	}
	return out
}

func (s *scaler) applyAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.apply(row)
	}
	return out
}

// extract computes features for every clip, in order.
func extract(ex features.Extractor, clips []LabeledClip) ([][]float64, []int, error) {
	x := make([][]float64, len(clips))
	y := make([]int, len(clips))
	for i, s := range clips {
		v, err := ex.Extract(s.Clip)
		if err != nil {
			return nil, nil, fmt.Errorf("core: extract sample %d: %w", i, err)
		}
		x[i] = v
		if s.Hotspot {
			y[i] = 1
		}
	}
	return x, y, nil
}

// errNotFitted is returned by Score before Fit.
var errNotFitted = errors.New("core: detector is not fitted")

// PMDetector wraps the pattern-matching library.
type PMDetector struct {
	Cfg pm.Config

	lib *pm.Library
	thr float64
}

var _ Detector = (*PMDetector)(nil)

// NewPMDetector constructs a pattern-matching detector.
func NewPMDetector(cfg pm.Config) *PMDetector { return &PMDetector{Cfg: cfg} }

// Name implements Detector.
func (d *PMDetector) Name() string {
	if d.Cfg.Tol > 0 {
		return fmt.Sprintf("pm-fuzzy(tol=%d)", d.Cfg.Tol)
	}
	return "pm-exact"
}

// Fit implements Detector: all training hotspots enter the library.
func (d *PMDetector) Fit(train []LabeledClip) error {
	lib, err := pm.New(d.Cfg)
	if err != nil {
		return err
	}
	for i, s := range train {
		if !s.Hotspot {
			continue
		}
		if err := lib.AddHotspot(s.Clip); err != nil {
			return fmt.Errorf("core: pm add hotspot %d: %w", i, err)
		}
	}
	d.lib = lib
	grid := d.Cfg.GridPx
	if grid <= 0 {
		grid = 32
	}
	d.thr = 1 - float64(d.Cfg.Tol)/float64(grid*grid)
	return nil
}

// Score implements Detector.
func (d *PMDetector) Score(clip layout.Clip) (float64, error) {
	if d.lib == nil {
		return 0, errNotFitted
	}
	return d.lib.Score(clip)
}

// Threshold implements Detector.
func (d *PMDetector) Threshold() float64 { return d.thr }

// SVMDetector is a kernel SVM over a feature extractor.
type SVMDetector struct {
	Ex  features.Extractor
	Cfg svm.Config

	scale *scaler
	model *svm.Model
}

var _ Detector = (*SVMDetector)(nil)

// NewSVMDetector constructs an SVM detector over the extractor.
func NewSVMDetector(ex features.Extractor, cfg svm.Config) *SVMDetector {
	return &SVMDetector{Ex: ex, Cfg: cfg}
}

// Name implements Detector.
func (d *SVMDetector) Name() string { return "svm+" + d.Ex.Name() }

// Fit implements Detector.
func (d *SVMDetector) Fit(train []LabeledClip) error {
	x, y, err := extract(d.Ex, train)
	if err != nil {
		return err
	}
	d.scale = fitScaler(x)
	m, err := svm.Train(d.scale.applyAll(x), y, d.Cfg)
	if err != nil {
		return fmt.Errorf("core: svm fit: %w", err)
	}
	d.model = m
	return nil
}

// Score implements Detector: the signed SVM margin.
func (d *SVMDetector) Score(clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	v, err := d.Ex.Extract(clip)
	if err != nil {
		return 0, err
	}
	return d.model.Decision(d.scale.apply(v)), nil
}

// Threshold implements Detector.
func (d *SVMDetector) Threshold() float64 { return 0 }

// BoostDetector is AdaBoost over a feature extractor.
type BoostDetector struct {
	Ex  features.Extractor
	Cfg boost.Config

	scale *scaler
	model *boost.Model
}

var _ Detector = (*BoostDetector)(nil)

// NewBoostDetector constructs an AdaBoost detector over the extractor.
func NewBoostDetector(ex features.Extractor, cfg boost.Config) *BoostDetector {
	return &BoostDetector{Ex: ex, Cfg: cfg}
}

// Name implements Detector.
func (d *BoostDetector) Name() string { return "adaboost+" + d.Ex.Name() }

// Fit implements Detector.
func (d *BoostDetector) Fit(train []LabeledClip) error {
	x, y, err := extract(d.Ex, train)
	if err != nil {
		return err
	}
	d.scale = fitScaler(x)
	m, err := boost.Train(d.scale.applyAll(x), y, d.Cfg)
	if err != nil {
		return fmt.Errorf("core: boost fit: %w", err)
	}
	d.model = m
	return nil
}

// Score implements Detector: the normalized ensemble margin in [-1, 1].
func (d *BoostDetector) Score(clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	v, err := d.Ex.Extract(clip)
	if err != nil {
		return 0, err
	}
	return d.model.Score(d.scale.apply(v)), nil
}

// Threshold implements Detector.
func (d *BoostDetector) Threshold() float64 { return 0 }

// NeuralDetector wraps an MLP or CNN; Score is the hotspot probability.
type NeuralDetector struct {
	// Label distinguishes variants in reports (e.g. "cnn", "cnn-biased").
	Label string
	Ex    features.Extractor
	// Build constructs the (untrained) network for the extractor's
	// dimensionality.
	Build func() (*nn.Network, error)
	Cfg   nn.TrainConfig
	// Decision threshold on the hotspot probability (default 0.5).
	Thr float64
	// NoScale disables per-feature standardization. Spectral feature
	// tensors are already bounded, and standardizing them amplifies
	// near-constant high-frequency channels into noise.
	NoScale bool

	scale *scaler
	net   *nn.Network
	hist  []nn.EpochStats
}

var _ Detector = (*NeuralDetector)(nil)
var _ Cloner = (*NeuralDetector)(nil)
var _ BatchScorer = (*NeuralDetector)(nil)

// Name implements Detector.
func (d *NeuralDetector) Name() string { return d.Label + "+" + d.Ex.Name() }

// Fit implements Detector.
func (d *NeuralDetector) Fit(train []LabeledClip) error {
	return d.FitCtx(context.Background(), train)
}

// FitCtx implements CtxFitter. A run halted by cancellation keeps the
// partially trained network and history alongside the returned
// nn.ErrInterrupted, so callers can still score and report metrics for
// the epochs that completed.
func (d *NeuralDetector) FitCtx(ctx context.Context, train []LabeledClip) error {
	x, y, err := extract(d.Ex, train)
	if err != nil {
		return err
	}
	if d.NoScale {
		d.scale = &scaler{}
	} else {
		d.scale = fitScaler(x)
	}
	net, err := d.Build()
	if err != nil {
		return fmt.Errorf("core: build network: %w", err)
	}
	hist, ferr := nn.FitCtx(ctx, net, d.scale.applyAll(x), y, d.Cfg)
	if ferr != nil && !errors.Is(ferr, nn.ErrInterrupted) {
		return fmt.Errorf("core: nn fit: %w", ferr)
	}
	d.net = net
	d.hist = hist
	if ferr != nil {
		return fmt.Errorf("core: nn fit: %w", ferr)
	}
	return nil
}

// WithNetwork returns a copy of the detector serving net through the
// same fitted feature extractor, scaler, and threshold. This is the hot
// reload path: weights come from a model file, everything else carries
// over from the live detector. Training history does not transfer.
func (d *NeuralDetector) WithNetwork(net *nn.Network) (*NeuralDetector, error) {
	if net == nil {
		return nil, errors.New("core: nil network")
	}
	if net.OutDim() != 2 {
		return nil, fmt.Errorf("core: network ends with %d logits, want 2", net.OutDim())
	}
	if d.scale == nil {
		return nil, errNotFitted
	}
	out := *d
	out.net = net
	out.hist = nil
	return &out, nil
}

// History returns the training history of the last Fit.
func (d *NeuralDetector) History() []nn.EpochStats { return d.hist }

// Network returns the trained network (nil before Fit).
func (d *NeuralDetector) Network() *nn.Network { return d.net }

// Score implements Detector.
func (d *NeuralDetector) Score(clip layout.Clip) (float64, error) {
	if d.net == nil {
		return 0, errNotFitted
	}
	v, err := d.Ex.Extract(clip)
	if err != nil {
		return 0, err
	}
	return nn.Score(d.net, d.scale.apply(v)), nil
}

// ScoreBatch implements BatchScorer through the nn batched inference
// engine: feature extraction per clip, then one parallel arena-backed
// forward pass. Scores are bit-identical to per-clip Score calls, and
// the path is read-only on the network, so it is safe for concurrent
// use without cloning.
func (d *NeuralDetector) ScoreBatch(clips []layout.Clip) ([]float64, error) {
	return d.ScoreBatchCtx(context.Background(), clips)
}

// Threshold implements Detector.
func (d *NeuralDetector) Threshold() float64 {
	if d.Thr <= 0 {
		return 0.5
	}
	return d.Thr
}

// CloneDetector implements Cloner: neural forward passes mutate layer
// caches, so concurrent scoring needs clones.
func (d *NeuralDetector) CloneDetector() Detector {
	out := *d
	if d.net != nil {
		out.net = d.net.Clone()
	}
	return &out
}

// NewMLPDetector builds the shallow neural-network baseline.
func NewMLPDetector(ex features.Extractor, hidden []int, cfg nn.TrainConfig) *NeuralDetector {
	return &NeuralDetector{
		Label: "mlp",
		Ex:    ex,
		Build: func() (*nn.Network, error) { return nn.BuildMLP(ex.Dim(), hidden...), nil },
		Cfg:   cfg,
	}
}

// NewCNNDetector builds the deep feature-tensor CNN detector. The
// extractor must be a *features.DCT so the tensor shape is known.
func NewCNNDetector(ex *features.DCT, cnn nn.CNNConfig, cfg nn.TrainConfig, label string) *NeuralDetector {
	if label == "" {
		label = "cnn"
	}
	c, h, w := ex.TensorShape()
	if cnn.InC == 0 {
		cnn.InC, cnn.InH, cnn.InW = c, h, w
	}
	return &NeuralDetector{
		Label: label,
		Ex:    ex,
		Build: func() (*nn.Network, error) { return nn.BuildCNN(cnn) },
		Cfg:   cfg,
	}
}

// ForestDetector is a bagged random forest over a feature extractor.
type ForestDetector struct {
	Ex  features.Extractor
	Cfg dtree.ForestConfig

	scale *scaler
	model *dtree.Forest
}

var _ Detector = (*ForestDetector)(nil)

// NewForestDetector constructs a random-forest detector over the extractor.
func NewForestDetector(ex features.Extractor, cfg dtree.ForestConfig) *ForestDetector {
	return &ForestDetector{Ex: ex, Cfg: cfg}
}

// Name implements Detector.
func (d *ForestDetector) Name() string { return "rforest+" + d.Ex.Name() }

// Fit implements Detector.
func (d *ForestDetector) Fit(train []LabeledClip) error {
	x, y, err := extract(d.Ex, train)
	if err != nil {
		return err
	}
	d.scale = fitScaler(x)
	m, err := dtree.TrainForest(d.scale.applyAll(x), y, d.Cfg)
	if err != nil {
		return fmt.Errorf("core: forest fit: %w", err)
	}
	d.model = m
	return nil
}

// Score implements Detector: the mean tree probability.
func (d *ForestDetector) Score(clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	v, err := d.Ex.Extract(clip)
	if err != nil {
		return 0, err
	}
	return d.model.Prob(d.scale.apply(v)), nil
}

// Threshold implements Detector.
func (d *ForestDetector) Threshold() float64 { return 0.5 }

// LogRegDetector is L2-regularized logistic regression over a feature
// extractor: the probabilistic shallow baseline.
type LogRegDetector struct {
	Ex  features.Extractor
	Cfg logreg.Config

	scale *scaler
	model *logreg.Model
}

var _ Detector = (*LogRegDetector)(nil)

// NewLogRegDetector constructs a logistic-regression detector.
func NewLogRegDetector(ex features.Extractor, cfg logreg.Config) *LogRegDetector {
	return &LogRegDetector{Ex: ex, Cfg: cfg}
}

// Name implements Detector.
func (d *LogRegDetector) Name() string { return "logreg+" + d.Ex.Name() }

// Fit implements Detector.
func (d *LogRegDetector) Fit(train []LabeledClip) error {
	x, y, err := extract(d.Ex, train)
	if err != nil {
		return err
	}
	d.scale = fitScaler(x)
	m, err := logreg.Train(d.scale.applyAll(x), y, d.Cfg)
	if err != nil {
		return fmt.Errorf("core: logreg fit: %w", err)
	}
	d.model = m
	return nil
}

// Score implements Detector: the hotspot probability.
func (d *LogRegDetector) Score(clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	v, err := d.Ex.Extract(clip)
	if err != nil {
		return 0, err
	}
	return d.model.Prob(d.scale.apply(v)), nil
}

// Threshold implements Detector.
func (d *LogRegDetector) Threshold() float64 { return 0.5 }
