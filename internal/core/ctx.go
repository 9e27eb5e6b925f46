// Context-aware scoring: the span-attributing twins of Score and
// ScoreClips. Feature-based detectors decompose a scored clip into
// "raster" + "features" spans (via features.ExtractCtx) followed by an
// "inference" span, which is exactly the per-stage ODST breakdown the
// tracer exports as hotspot_stage_seconds.
//
// Plain Score/ScoreBatch delegate here with context.Background(), so
// untraced callers pay only the nil-span fast path.

package core

import (
	"context"
	"fmt"

	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/trace"
)

// CtxScorer is implemented by detectors that attribute scoring stages
// (raster, features, inference) to trace spans.
type CtxScorer interface {
	// ScoreCtx is Score with stage spans on the context's trace.
	ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error)
}

// CtxBatchScorer is the span-attributing twin of BatchScorer.
type CtxBatchScorer interface {
	// ScoreBatchCtx is ScoreBatch with stage spans on the context's trace.
	ScoreBatchCtx(ctx context.Context, clips []layout.Clip) ([]float64, error)
}

// CtxFitter is implemented by detectors whose training observes context
// cancellation (halting with nn.ErrInterrupted after cutting a final
// checkpoint) and attributes checkpoint work to train.checkpoint spans.
type CtxFitter interface {
	// FitCtx is Fit with cooperative interruption.
	FitCtx(ctx context.Context, train []LabeledClip) error
}

// FitClipsCtx trains through the detector's context-aware path when it
// has one, falling back to plain Fit.
func FitClipsCtx(ctx context.Context, d Detector, train []LabeledClip) error {
	if cf, ok := d.(CtxFitter); ok {
		return cf.FitCtx(ctx, train)
	}
	return d.Fit(train)
}

// ScoreClipCtx scores one clip through the detector's span-attributing
// path when it has one, falling back to plain Score.
func ScoreClipCtx(ctx context.Context, d Detector, clip layout.Clip) (float64, error) {
	if cs, ok := d.(CtxScorer); ok {
		return cs.ScoreCtx(ctx, clip)
	}
	return d.Score(clip)
}

// ScoreClipsCtx is ScoreClips with span attribution: the vectorized
// CtxBatchScorer when available, then per-clip CtxScorer, then the
// plain paths.
func ScoreClipsCtx(ctx context.Context, d Detector, clips []layout.Clip) ([]float64, error) {
	if cbs, ok := d.(CtxBatchScorer); ok {
		return cbs.ScoreBatchCtx(ctx, clips)
	}
	if trace.Disabled(ctx) {
		return ScoreClips(d, clips)
	}
	if cs, ok := d.(CtxScorer); ok {
		if _, isBatch := d.(BatchScorer); !isBatch {
			out := make([]float64, len(clips))
			for i, clip := range clips {
				s, err := cs.ScoreCtx(ctx, clip)
				if err != nil {
					return nil, fmt.Errorf("core: score clip %d: %w", i, err)
				}
				out[i] = s
			}
			return out, nil
		}
	}
	return ScoreClips(d, clips)
}

// scoreFeatures is the shared span path of the feature-based detectors:
// extraction under ExtractCtx (one "raster" + "features" span pair per
// extractor), then the fitted model under an "inference" span.
func scoreFeatures(ctx context.Context, name string, ex features.Extractor,
	clip layout.Clip, model func(v []float64) float64) (float64, error) {
	v, err := features.ExtractCtx(ctx, ex, clip)
	if err != nil {
		return 0, err
	}
	_, sp := trace.Start(ctx, "inference", trace.A("detector", name))
	s := model(v)
	sp.End()
	return s, nil
}

var (
	_ CtxScorer      = (*SVMDetector)(nil)
	_ CtxScorer      = (*BoostDetector)(nil)
	_ CtxScorer      = (*ForestDetector)(nil)
	_ CtxScorer      = (*LogRegDetector)(nil)
	_ CtxScorer      = (*NeuralDetector)(nil)
	_ CtxBatchScorer = (*NeuralDetector)(nil)
	_ CtxFitter      = (*NeuralDetector)(nil)
)

// ScoreCtx implements CtxScorer.
func (d *SVMDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d.Name(), d.Ex, clip, func(v []float64) float64 {
		return d.model.Decision(d.scale.apply(v))
	})
}

// ScoreCtx implements CtxScorer.
func (d *BoostDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d.Name(), d.Ex, clip, func(v []float64) float64 {
		return d.model.Score(d.scale.apply(v))
	})
}

// ScoreCtx implements CtxScorer.
func (d *ForestDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d.Name(), d.Ex, clip, func(v []float64) float64 {
		return d.model.Prob(d.scale.apply(v))
	})
}

// ScoreCtx implements CtxScorer.
func (d *LogRegDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.model == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d.Name(), d.Ex, clip, func(v []float64) float64 {
		return d.model.Prob(d.scale.apply(v))
	})
}

// ScoreCtx implements CtxScorer. Like Score, it mutates layer caches:
// concurrent callers need clones.
func (d *NeuralDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	if d.net == nil {
		return 0, errNotFitted
	}
	return scoreFeatures(ctx, d.Name(), d.Ex, clip, func(v []float64) float64 {
		return nn.Score(d.net, d.scale.apply(v))
	})
}

// ScoreBatchCtx implements CtxBatchScorer: per-clip extraction spans,
// then the batched forward pass under nn.PredictBatchCtx (arena and
// matmul stage spans). Safe for concurrent use like ScoreBatch.
func (d *NeuralDetector) ScoreBatchCtx(ctx context.Context, clips []layout.Clip) ([]float64, error) {
	if d.net == nil {
		return nil, errNotFitted
	}
	xs := make([][]float64, len(clips))
	for i, clip := range clips {
		v, err := features.ExtractCtx(ctx, d.Ex, clip)
		if err != nil {
			return nil, fmt.Errorf("core: extract clip %d: %w", i, err)
		}
		xs[i] = d.scale.apply(v)
	}
	return nn.PredictBatchCtx(ctx, d.net, xs, 0)
}
