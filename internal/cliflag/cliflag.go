// Package cliflag declares the flags the hsd command-line tools share —
// the -suite/-bench/-detector/-seed model group, the
// -router-lo/-router-hi/-router-eps band group and -version — together
// with the golden-set picker their model gates use, so each flag is
// declared, resolved and validated in one place. Help text stays with
// each tool, because the same flag means a training suite to one tool
// and an evaluation suite to another.
package cliflag

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/telemetry"
)

// Model is the -suite/-bench/-detector/-seed group: the suite file, the
// benchmark in it, the zoo detector and the seed the zoo is built with.
type Model struct {
	SuitePath string
	Bench     string
	Detector  string
	Seed      int64
}

// ModelHelp is one tool's defaults and help text for the Model group.
// An empty Detector leaves -detector undeclared, for tools that run the
// whole zoo.
type ModelHelp struct {
	SuiteDefault, Suite       string
	Bench                     string
	DetectorDefault, Detector string
	Seed                      string
}

// NewModel declares the Model group on fs.
func NewModel(fs *flag.FlagSet, h ModelHelp) *Model {
	m := &Model{}
	fs.StringVar(&m.SuitePath, "suite", h.SuiteDefault, h.Suite)
	fs.StringVar(&m.Bench, "bench", "", h.Bench)
	if h.Detector != "" {
		fs.StringVar(&m.Detector, "detector", h.DetectorDefault, h.Detector)
	}
	fs.Int64Var(&m.Seed, "seed", 1, h.Seed)
	return m
}

// LoadSuite reads the -suite file.
func (m *Model) LoadSuite() (*hsd.Suite, error) {
	f, err := os.Open(m.SuitePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hsd.LoadSuite(f)
}

// Benchmark returns the -bench benchmark of suite, or its first
// benchmark when -bench is empty.
func (m *Model) Benchmark(suite *hsd.Suite) (*hsd.Benchmark, error) {
	for i := range suite.Benchmarks {
		if m.Bench == "" || suite.Benchmarks[i].Name == m.Bench {
			return &suite.Benchmarks[i], nil
		}
	}
	return nil, fmt.Errorf("benchmark %q not found", m.Bench)
}

// Open reads the -suite file and resolves -bench in it.
func (m *Model) Open() (*hsd.Suite, *hsd.Benchmark, error) {
	suite, err := m.LoadSuite()
	if err != nil {
		return nil, nil, err
	}
	bench, err := m.Benchmark(suite)
	if err != nil {
		return nil, nil, err
	}
	return suite, bench, nil
}

// Spec returns the zoo entry named name (case-insensitive), built with
// -seed. A tool passes m.Detector, or a second name such as hsdserve's
// -fallback.
func (m *Model) Spec(name string) (hsd.DetectorSpec, error) {
	zoo := hsd.SurveyZoo(m.Seed)
	names := make([]string, len(zoo))
	for i, s := range zoo {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
		names[i] = s.Name
	}
	return hsd.DetectorSpec{}, fmt.Errorf("detector %q not in zoo (have: %s)", name, strings.Join(names, ", "))
}

// Router is the -router-lo/-router-hi/-router-eps group: a forced
// confidence band for the routed cascade, and the per-stage
// answered-error budget its band fit uses otherwise.
type Router struct {
	Lo, Hi, Eps float64
}

// NewRouter declares the Router group on fs. perDetector is true for
// tools that build one -detector, whose help then names -detector
// Router.
func NewRouter(fs *flag.FlagSet, perDetector bool) *Router {
	r := &Router{}
	note := ""
	if perDetector {
		note = "; -detector Router"
	}
	fs.Float64Var(&r.Lo, "router-lo", -1, "router: force the low confidence cut (with -router-hi"+note+")")
	fs.Float64Var(&r.Hi, "router-hi", -1, "router: force the high confidence cut (with -router-lo"+note+")")
	fs.Float64Var(&r.Eps, "router-eps", 0, "router: per-stage answered-error budget for band fitting (0 = default)")
	return r
}

// Validate checks the group on its own: a forced band needs both cuts.
func (r *Router) Validate() error {
	if (r.Lo >= 0) != (r.Hi >= 0) {
		return errors.New("-router-lo and -router-hi must be set together")
	}
	return nil
}

// Apply forwards the group onto det. Any router flag on a detector that
// is not a Router is an error.
func (r *Router) Apply(det hsd.Detector) error {
	rt, ok := det.(*hsd.RouterDetector)
	if !ok {
		if r.Lo >= 0 || r.Hi >= 0 || r.Eps > 0 {
			return fmt.Errorf("-router-* flags need -detector Router (got %s)", det.Name())
		}
		return nil
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if r.Eps > 0 {
		rt.SetMaxStageError(r.Eps)
	}
	if r.Lo >= 0 {
		rt.ForceBand(hsd.RouterBand{Lo: r.Lo, Hi: r.Hi})
	}
	return nil
}

// VersionHelp is the usual help text of -version.
const VersionHelp = "print build info (the hotspot_build_info fields) and exit"

// Version is the -version flag of one tool.
type Version struct {
	cmd string
	set bool
}

// NewVersion declares -version on fs for the tool named cmd.
func NewVersion(fs *flag.FlagSet, cmd, help string) *Version {
	v := &Version{cmd: cmd}
	fs.BoolVar(&v.set, "version", false, help)
	return v
}

// Print writes the tool's build info (the hotspot_build_info fields) to
// stdout when -version was given, and reports whether it did.
func (v *Version) Print() bool {
	if v.set {
		goVersion, revision := telemetry.BuildInfo()
		fmt.Printf("%s go_version=%s revision=%s\n", v.cmd, goVersion, revision)
	}
	return v.set
}

// GoldenSet picks up to n clips from the benchmark's test split for a
// model gate, alternating hotspots and non-hotspots so recall and
// false-alarm deltas are both measurable.
func GoldenSet(bench *hsd.Benchmark, n int) []hsd.LabeledClip {
	if n <= 0 {
		return nil
	}
	var hot, cold []hsd.LabeledClip
	for _, s := range hsd.FromSamples(bench.Test.Samples) {
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
