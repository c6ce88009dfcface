package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"cppcache"
	"cppcache/internal/isa"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/stats"
	"cppcache/internal/workload"
)

// figures is everything `cppbench -related` prints, through one
// cppcache.Suite with one worker: every configuration on every program at
// scale 1 with full miss penalties, plus the paper's five with halved
// ones. Its largest layer is the out-of-order core, so core-model changes
// show here and nowhere else. Its inputs are the paper's fixed programs,
// so it ignores the seed.

// paperAverages are the paper's headline averages behind paper_err_pct:
// Fig 10 traffic (BCC, BCP, CPP vs BC), Fig 11 CPP time and Fig 12 CPP
// L1 misses, each normalised to BC.
var paperAverages = []struct {
	table, col string
	value      float64
}{
	{"Figure 10", "BCC", 0.60},
	{"Figure 10", "BCP", 1.80},
	{"Figure 10", "CPP", 0.90},
	{"Figure 11", "CPP", 0.93},
	{"Figure 12", "CPP", 0.86},
}

// goldenTolerance is internal/experiments' rule for golden.json: a
// relative 2% with an absolute floor for near-zero values.
const goldenTolerance = 0.02

func withinGolden(got, want float64) bool {
	return math.Abs(got-want) <= goldenTolerance*math.Max(math.Abs(want), 0.05)
}

// figuresKeys lists the suite's runs: bench x config x halved.
func figuresKeys(names []string) []runKey {
	var keys []runKey
	full := append(append([]string(nil), sim.Configs()...), sim.ExtraConfigs()...)
	for _, n := range names {
		for _, c := range full {
			keys = append(keys, runKey{n, c, false})
		}
		for _, c := range sim.Configs() {
			keys = append(keys, runKey{n, c, true})
		}
	}
	return keys
}

// runKey names one simulation of a pass.
type runKey struct {
	bench, config string
	halved        bool
}

func (k runKey) String() string {
	s := k.bench + "/" + k.config
	if k.halved {
		s += "/halved"
	}
	return s
}

func (k runKey) lat() memsys.Latencies {
	if k.halved {
		return memsys.DefaultLatencies().Halved()
	}
	return memsys.DefaultLatencies()
}

func runFigures(b *bench) error {
	b.tailQ = 0.9 // 168 job means: p90 has 16 beyond it, p99 would have 1
	names := b.sc.benchmarks
	var progs map[string]*workload.Program
	if err := b.timeSetup(func(keep bool) error {
		p, err := b.buildPrograms(names, 1, keep)
		progs = p
		return err
	}); err != nil {
		return err
	}
	golden, err := readGolden(b.sc.goldenPath)
	if err != nil {
		return err
	}
	keys := figuresKeys(names)
	memOps := map[string]int64{}
	var insts, accesses int64
	for _, n := range names {
		memOps[n] = countMemOps(progs[n])
	}
	for _, k := range keys {
		insts += int64(progs[k.bench].Len())
		accesses += memOps[k.bench]
	}
	b.extra["scales"] = []int{1}
	b.extra["runs_per_pass"] = len(keys)

	err = b.measure(func(p int, sp *span.Span) (passSample, error) {
		parent := sp
		if parent == nil && !b.traced {
			// Untraced runs still hand the suite a private root: its
			// per-run spans are the only per-run latency the suite exposes.
			// A traced run's untraced pass records nothing, so that the
			// traced pass minus it is the tracing overhead.
			parent = span.New(4*len(keys)).Start("suite", nil)
		}
		tables, err := figuresPass(names, parent)
		b.op(err)
		if err != nil {
			return passSample{}, err
		}
		runs := len(keys)
		if parent != nil {
			ms := runSpans(parent)
			runs = len(ms)
			b.check(runs == len(keys), "pass %d: suite made %d runs, want %d", p, runs, len(keys))
			if sp == nil {
				for name, v := range ms {
					b.op(nil)
					b.job(name, v)
				}
			}
		}
		d := newDigester()
		for _, t := range tables {
			for r, row := range t.Rows {
				vals := make([]any, len(t.Cells[r]))
				for c, v := range t.Cells[r] {
					vals[c] = v
				}
				d.add(t.Title+"/"+row, vals...)
			}
		}
		b.passDigest(p, d.sum())
		if p == 0 {
			b.checkFigures(tables, golden)
		}
		return passSample{insts: insts, accesses: accesses, requests: int64(runs)}, nil
	}, nil)
	if err != nil {
		return err
	}
	if b.traced {
		return b.figuresLayers(keys, progs, memOps)
	}
	return nil
}

// figuresPass renders every table cppbench -related prints, in its order.
func figuresPass(names []string, parent *span.Span) ([]*cppcache.Table, error) {
	s := cppcache.NewSuite(cppcache.SuiteOptions{Scale: 1, Benchmarks: names, Workers: 1, Trace: parent})
	steps := []struct {
		name string
		fn   func() (*cppcache.Table, error)
	}{
		{"fig3", s.Figure3}, {"fig10", s.Figure10}, {"fig11", s.Figure11},
		{"fig12", s.Figure12}, {"fig13", s.Figure13}, {"fig14", s.Figure14},
		{"fig15", s.Figure15}, {"related.time", s.RelatedWorkTime},
		{"related.traffic", s.RelatedWorkTraffic}, {"energy", s.Energy},
		{"mix", s.InstructionMix},
	}
	// Render every table as cppbench prints it; the checks read the cells,
	// so the text itself is only the work a user waits for.
	var out []*cppcache.Table
	var sb strings.Builder
	sb.WriteString(cppcache.BaselineDescription())
	for _, st := range steps {
		sp := parent.StartChild("figure." + st.name)
		t, err := st.fn()
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
		sb.WriteString(t.String())
		out = append(out, t)
	}
	return out, nil
}

// runSpans returns the durations, in ms, of the suite's per-run spans
// under parent, by span name (one name per run of the pass).
func runSpans(parent *span.Span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range parent.Tracer().Snapshot() {
		if s.ParentID == parent.ID() && strings.HasPrefix(s.Name, "run ") {
			out[s.Name] = float64(s.Duration()) / float64(time.Millisecond)
		}
	}
	return out
}

// tableByPrefix finds the table whose title starts with prefix.
func tableByPrefix(tables []*cppcache.Table, prefix string) *cppcache.Table {
	for _, t := range tables {
		if strings.HasPrefix(t.Title, prefix) {
			return t
		}
	}
	return nil
}

type goldenFile struct {
	Scale      int                           `json:"scale"`
	Benchmarks []string                      `json:"benchmarks"`
	Metrics    map[string]map[string]float64 `json:"metrics"`
}

// readGolden reads the pinned CPP-vs-BC headline metrics from their
// repository path, so a change that re-pins them keeps the benchmark valid.
func readGolden(path string) (goldenFile, error) {
	var g goldenFile
	data, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("%s: %w", path, err)
	}
	if g.Scale != 1 {
		return g, fmt.Errorf("%s: pinned at scale %d, want 1", path, g.Scale)
	}
	return g, nil
}

// checkFigures applies the golden and figure-shape checks to one pass's
// tables and records paper_err_pct.
func (b *bench) checkFigures(tables []*cppcache.Table, golden goldenFile) {
	t10, t11, t12 := tableByPrefix(tables, "Figure 10"), tableByPrefix(tables, "Figure 11"), tableByPrefix(tables, "Figure 12")
	if t10 == nil || t11 == nil || t12 == nil {
		b.check(false, "figures: missing Figure 10/11/12 table")
		return
	}
	has := map[string]bool{}
	for _, r := range t10.Rows {
		has[r] = true
	}
	// Golden rows and their geomean (over the golden benchmarks only).
	headline := func(rows []string) map[string]float64 {
		var tr, tm, l1 []float64
		for _, r := range rows {
			tr = append(tr, t10.Get(r, "CPP"))
			tm = append(tm, t11.Get(r, "CPP"))
			l1 = append(l1, t12.Get(r, "CPP"))
		}
		return map[string]float64{
			"traffic_reduction": 1 - stats.Geomean(tr),
			"l1_miss_reduction": 1 - stats.Geomean(l1),
			"speedup":           1 / stats.Geomean(tm),
		}
	}
	all := true
	for _, r := range golden.Benchmarks {
		all = all && has[r]
	}
	for row, want := range golden.Metrics {
		var got map[string]float64
		switch {
		case row == "geomean":
			if !all {
				continue
			}
			got = headline(golden.Benchmarks)
		case has[row]:
			got = headline([]string{row})
		default:
			continue
		}
		for name, w := range want {
			b.check(withinGolden(got[name], w), "golden %s/%s = %.4f, pinned %.4f", row, name, got[name], w)
		}
	}
	// TestFigureShapes' claims, on every program.
	for _, r := range t10.Rows {
		if r == "geomean" {
			continue
		}
		b.check(t10.Get(r, "BCC") < 1, "%s: BCC traffic %.4f not below BC", r, t10.Get(r, "BCC"))
		b.check(t10.Get(r, "CPP") < 1, "%s: CPP traffic %.4f not below BC", r, t10.Get(r, "CPP"))
		b.check(t11.Get(r, "BC") == t11.Get(r, "BCC"), "%s: BC and BCC cycles differ", r)
		b.check(t11.Get(r, "CPP") <= 1.05, "%s: CPP time %.4f above 1.05x BC", r, t11.Get(r, "CPP"))
	}
	var gap float64
	for _, pa := range paperAverages {
		t := tableByPrefix(tables, pa.table)
		gap += math.Abs(t.Get("geomean", pa.col) - pa.value)
	}
	b.extra["paper_err_pct"] = 100 * gap / float64(len(paperAverages))
}

// countMemOps counts a program's loads and stores: the L1 access count
// every configuration, mode and latency must report for it.
func countMemOps(p *workload.Program) int64 {
	var n int64
	for _, op := range p.Decoded().Ops() {
		if op == isa.OpLoad || op == isa.OpStore {
			n++
		}
	}
	return n
}

// figuresLayers isolates the layers of every run of the pass by
// record-and-replay, then times the codecs and memory on the lines and
// accesses of each program.
func (b *bench) figuresLayers(keys []runKey, progs map[string]*workload.Program, memOps map[string]int64) error {
	b.layers.traceRuns = len(keys)
	for _, k := range keys {
		_, st, err := b.pipelineLayers(progs[k.bench], k.config, k.lat())
		b.op(err)
		if err != nil {
			continue
		}
		b.check(st.L1.Accesses == memOps[k.bench], "%s: %d L1 accesses, program has %d memory ops",
			k, st.L1.Accesses, memOps[k.bench])
		b.layers.observeRun(k.config, &st)
	}
	for _, n := range b.sc.benchmarks {
		b.dataLayers(n, progAccesses(progs[n]))
	}
	b.buildLayers()
	return nil
}
