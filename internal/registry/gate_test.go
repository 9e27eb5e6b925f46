// Tests for the exported standalone Gate — the same verdict logic the
// reload path uses, called directly without a registry around it.

package registry

import (
	"strings"
	"testing"
)

func TestGateAdmitsSmallPrecisionDrift(t *testing.T) {
	g := golden(4, 2)
	// Baseline: perfect separation at thr 0.5. Candidate: the same model
	// after quantization — every score nudged by a few hundredths, no
	// decision flips.
	base := det("f64", 0.5, 0.9, 0.8, 0.1, 0.2)
	quant := det("int8", 0.5, 0.87, 0.83, 0.12, 0.17)
	v := Gate(base, quant, g, 0.05, 0.05, t.Logf)
	if !v.OK {
		t.Fatalf("drift-free candidate rejected: %s", v.Reason)
	}
}

func TestGateLogsBaselineFailure(t *testing.T) {
	g := golden(4, 2)
	// A live baseline that cannot score the golden set downgrades the
	// gate to sanity-only — and must say so.
	broken := &fakeDet{name: "f64", thr: 0.5, panics: true}
	cand := det("int8", 0.5, 0.9, 0.8, 0.1, 0.2)
	var logs []string
	v := Gate(broken, cand, g, 0, 0, func(format string, args ...any) {
		logs = append(logs, format)
	})
	if !v.OK {
		t.Fatalf("finite candidate rejected under sanity-only gate: %s", v.Reason)
	}
	if len(logs) == 0 {
		t.Fatal("baseline failure was not logged")
	}
}

func TestGateRejectsRecallDrop(t *testing.T) {
	g := golden(4, 2)
	base := det("f64", 0.5, 0.9, 0.8, 0.1, 0.2)
	// Quantization pushed one of two hotspots under threshold: recall
	// 1.0 -> 0.5, far beyond the 5% allowance.
	quant := det("int8", 0.5, 0.9, 0.4, 0.1, 0.2)
	v := Gate(base, quant, g, 0.05, 0.05, nil)
	if v.OK {
		t.Fatal("candidate with halved recall admitted")
	}
	if !strings.Contains(v.Reason, "recall") {
		t.Fatalf("reason %q does not mention recall", v.Reason)
	}
}

func TestGateRejectsFalseAlarmRise(t *testing.T) {
	g := golden(4, 2)
	base := det("f64", 0.5, 0.9, 0.8, 0.1, 0.2)
	// A coldspot crossed the threshold: false-alarm rate 0 -> 0.5.
	quant := det("int8", 0.5, 0.9, 0.8, 0.6, 0.2)
	v := Gate(base, quant, g, 0.05, 0.05, nil)
	if v.OK {
		t.Fatal("candidate with new false alarms admitted")
	}
	if !strings.Contains(v.Reason, "false-alarm") {
		t.Fatalf("reason %q does not mention false-alarm rate", v.Reason)
	}
}

func TestGateRejectsNonFiniteCandidate(t *testing.T) {
	g := golden(4, 2)
	base := det("f64", 0.5, 0.9, 0.8, 0.1, 0.2)
	bad := det("int8", 0.5, 0.9, nan(), 0.1, 0.2)
	if v := Gate(base, bad, g, 1, 1, nil); v.OK {
		t.Fatal("NaN-scoring candidate admitted even with slack bounds")
	}
}

func TestGateNilLogf(t *testing.T) {
	// nil logf must not panic anywhere in the verdict path.
	g := golden(2, 1)
	base := det("f64", 0.5, 0.9, 0.1)
	if v := Gate(base, base, g, 0, 0, nil); !v.OK {
		t.Fatalf("self-comparison rejected: %s", v.Reason)
	}
}

func TestGateEmptyGoldenSanityOnly(t *testing.T) {
	base := det("f64", 0.5)
	cand := det("int8", 0.5)
	if v := Gate(base, cand, nil, 0, 0, nil); !v.OK {
		t.Fatalf("empty golden set rejected finite candidate: %s", v.Reason)
	}
}

func nan() float64 {
	var z float64
	return z / z
}
