package cliflag

import (
	"flag"
	"strings"
	"testing"

	hsd "github.com/golitho/hsd"
)

// TestModelAndRouterFlags parses each case's arguments the way a
// single-detector tool declares them, then resolves them in the tools'
// order: benchmark, zoo spec, router flags on the built detector.
func TestModelAndRouterFlags(t *testing.T) {
	var zooNames []string
	for _, s := range hsd.SurveyZoo(1) {
		zooNames = append(zooNames, s.Name)
	}
	suite := &hsd.Suite{Benchmarks: []hsd.Benchmark{{Name: "B1"}, {Name: "B2"}}}
	cases := []struct {
		name      string
		args      []string
		wantErr   string // substring of the error; empty means success
		wantBench string
	}{
		{"router-lo without router-hi", []string{"-detector", "Router", "-router-lo", "0.2"},
			"-router-lo and -router-hi must be set together", ""},
		{"router flags on a non-Router detector", []string{"-detector", "AdaBoost", "-router-eps", "0.1"},
			"-router-* flags need -detector Router (got adaboost+", ""},
		{"router-eps alone", []string{"-detector", "Router", "-router-eps", "0.05"}, "", "B1"},
		{"forced band", []string{"-detector", "router", "-router-lo", "0.1", "-router-hi", "0.9"}, "", "B1"},
		{"unknown detector", []string{"-detector", "ResNet"},
			`detector "ResNet" not in zoo (have: ` + strings.Join(zooNames, ", ") + ")", ""},
		{"unknown bench", []string{"-bench", "B9"}, `benchmark "B9" not found`, ""},
		{"empty bench picks the first", nil, "", "B1"},
		{"named bench", []string{"-bench", "B2"}, "", "B2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			m := NewModel(fs, ModelHelp{DetectorDefault: "AdaBoost", Detector: "zoo detector name"})
			r := NewRouter(fs, true)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			bench, err := m.Benchmark(suite)
			if err == nil {
				var spec hsd.DetectorSpec
				if spec, err = m.Spec(m.Detector); err == nil {
					err = r.Apply(spec.New())
				}
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if bench.Name != tc.wantBench {
				t.Fatalf("bench %s, want %s", bench.Name, tc.wantBench)
			}
		})
	}
}
