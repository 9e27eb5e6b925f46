package main

import (
	"context"
	"fmt"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/features"
	"github.com/golitho/hsd/internal/layout"
)

// The wrappers below put a span around every call the benchmark's
// traced run makes into a detector or a feature extractor. Each wrapper
// implements exactly the optional interfaces of what it wraps: hsd
// picks code paths by type assertion (ScoreBatch when a detector has
// it, per-worker clones when it is a Cloner), so a wrapper that hid or
// invented an interface would send the traced run down a different
// path than the untraced one.

// plainDetector wraps a core.Detector with no optional interfaces.
type plainDetector struct {
	inner core.Detector
	rec   *recorder
	span  string
}

func (d *plainDetector) Name() string                       { return d.inner.Name() }
func (d *plainDetector) Fit(train []core.LabeledClip) error { return d.inner.Fit(train) }
func (d *plainDetector) Threshold() float64                 { return d.inner.Threshold() }

func (d *plainDetector) Score(clip layout.Clip) (float64, error) {
	_, end := d.rec.begin(context.Background(), d.span)
	defer end()
	return d.inner.Score(clip)
}

// ctxDetector wraps a detector that is also a core.CtxScorer.
type ctxDetector struct{ plainDetector }

func (d *ctxDetector) ScoreCtx(ctx context.Context, clip layout.Clip) (float64, error) {
	ctx, end := d.rec.begin(ctx, d.span)
	defer end()
	return d.inner.(core.CtxScorer).ScoreCtx(ctx, clip)
}

// fullDetector wraps a detector implementing core.CtxScorer,
// core.Cloner, core.BatchScorer and core.CtxBatchScorer (the router and
// the neural detectors).
type fullDetector struct{ ctxDetector }

func (d *fullDetector) CloneDetector() core.Detector {
	c := *d
	c.inner = d.inner.(core.Cloner).CloneDetector()
	return &c
}

func (d *fullDetector) ScoreBatch(clips []layout.Clip) ([]float64, error) {
	_, end := d.rec.begin(context.Background(), d.span+"_batch")
	defer end()
	return d.inner.(core.BatchScorer).ScoreBatch(clips)
}

func (d *fullDetector) ScoreBatchCtx(ctx context.Context, clips []layout.Clip) ([]float64, error) {
	ctx, end := d.rec.begin(ctx, d.span+"_batch")
	defer end()
	return d.inner.(core.CtxBatchScorer).ScoreBatchCtx(ctx, clips)
}

// wrapDetector returns det wrapped in the variant matching its optional
// interfaces. Any other combination is an error rather than a silently
// different code path.
func wrapDetector(det core.Detector, rec *recorder, spanName string) (core.Detector, error) {
	_, cs := det.(core.CtxScorer)
	_, cl := det.(core.Cloner)
	_, bs := det.(core.BatchScorer)
	_, cbs := det.(core.CtxBatchScorer)
	base := plainDetector{inner: det, rec: rec, span: spanName}
	switch {
	case cs && cl && bs && cbs:
		return &fullDetector{ctxDetector{base}}, nil
	case cs && !cl && !bs && !cbs:
		return &ctxDetector{base}, nil
	case !cs && !cl && !bs && !cbs:
		return &base, nil
	}
	return nil, fmt.Errorf("wrap %s: no wrapper for its interface set (ctx=%v clone=%v batch=%v ctxbatch=%v)",
		det.Name(), cs, cl, bs, cbs)
}

// plainExtractor wraps a features.Extractor.
type plainExtractor struct {
	inner features.Extractor
	rec   *recorder
	span  string
}

func (e *plainExtractor) Name() string { return e.inner.Name() }
func (e *plainExtractor) Dim() int     { return e.inner.Dim() }

func (e *plainExtractor) Extract(clip layout.Clip) ([]float64, error) {
	_, end := e.rec.begin(context.Background(), e.span)
	defer end()
	return e.inner.Extract(clip)
}

// ctxExtractor wraps a features.CtxExtractor.
type ctxExtractor struct{ plainExtractor }

func (e *ctxExtractor) ExtractCtx(ctx context.Context, clip layout.Clip) ([]float64, error) {
	ctx, end := e.rec.begin(ctx, e.span)
	defer end()
	return e.inner.(features.CtxExtractor).ExtractCtx(ctx, clip)
}

func wrapExtractor(ex features.Extractor, rec *recorder, spanName string) features.Extractor {
	base := plainExtractor{inner: ex, rec: rec, span: spanName}
	if _, ok := ex.(features.CtxExtractor); ok {
		return &ctxExtractor{base}
	}
	return &base
}
