package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/verify"
	"cppcache/internal/workload"
)

// traffic is functional mode only, one run at a time: every configuration
// on every program at scale 1, the compressor-zoo rows, BC/BCP/CPP at one
// larger scale, and seed-generated streams driven through every
// configuration. No pipeline runs, so the hierarchies, the codecs and
// internal/mem do all the work: a change to the core alone must show
// nothing here. The streams are write-heavy, with bursts that flip words
// between compressible and incompressible, so a change that speeds trace
// reads at the cost of CPP's write path shows too.

// trafficConfigs are the configurations every program and stream runs on.
var trafficConfigs = []string{"BC", "BCC", "HAC", "BCP", "CPP", "VC", "LCC"}

// zooConfigs are the compressor-zoo rows (BCC under each non-paper
// scheme), as cppstudy -compressors runs them.
var zooConfigs = []string{"BCC@cpack", "BCC@fpc", "BCC@bdi"}

// bigConfigs run at the larger scale (ROADMAP's scale-convergence set).
var bigConfigs = []string{"BC", "BCP", "CPP"}

// trafficJob is one run of the pass: a program run or a stream drive.
type trafficJob struct {
	bench  string // "" for a stream
	scale  int
	stream int // stream index when bench == ""
	config string
}

func (j trafficJob) String() string {
	if j.bench == "" {
		return fmt.Sprintf("stream%d/%s", j.stream, j.config)
	}
	return fmt.Sprintf("%s@%d/%s", j.bench, j.scale, j.config)
}

// stream is one seed-generated access stream plus the value every load
// must return, computed by the benchmark's own flat oracle.
type stream struct {
	ops    []verify.Op
	expect []mach.Word
	reads  int64
}

// newStream generates stream i of the run's seed and its expected loads.
func newStream(seed int64, i, n int) *stream {
	s := verify.RandomStream(seed*1_000_003+int64(i), n)
	st := &stream{ops: s.Ops, expect: make([]mach.Word, len(s.Ops))}
	last := map[mach.Addr]mach.Word{}
	for k, op := range s.Ops {
		if op.Write {
			last[op.Addr] = op.Val
			continue
		}
		st.expect[k] = last[op.Addr] // untouched memory reads as zero
		st.reads++
	}
	return st
}

// drive feeds the stream through sys and counts loads that did not return
// the last value written.
func (s *stream) drive(sys memsys.System) (bad int64) {
	for k, op := range s.ops {
		if op.Write {
			sys.Write(op.Addr, op.Val)
		} else if v, _ := sys.Read(op.Addr); v != s.expect[k] {
			bad++
		}
	}
	return bad
}

// schemesGolden is testdata/golden_schemes.json: BC and BCC@scheme
// functional traffic per program at scale 1.
type schemesGolden struct {
	Scale    int                `json:"scale"`
	Baseline map[string]float64 `json:"baseline_bc_traffic_words"`
	Schemes  map[string]map[string]struct {
		TrafficWords float64 `json:"traffic_words"`
		TrafficRatio float64 `json:"traffic_ratio"`
	} `json:"schemes"`
}

func readSchemesGolden(path string) (schemesGolden, error) {
	var g schemesGolden
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

func trafficJobs(sc scope) []trafficJob {
	var jobs []trafficJob
	for _, n := range sc.benchmarks {
		for _, c := range append(append([]string(nil), trafficConfigs...), zooConfigs...) {
			jobs = append(jobs, trafficJob{bench: n, scale: 1, config: c})
		}
	}
	for _, n := range sc.benchmarks {
		for _, c := range bigConfigs {
			jobs = append(jobs, trafficJob{bench: n, scale: sc.bigScale, config: c})
		}
	}
	for i := 0; i < sc.streams; i++ {
		for _, c := range trafficConfigs {
			jobs = append(jobs, trafficJob{stream: i, config: c})
		}
	}
	return jobs
}

func runTraffic(b *bench) error {
	// 210 job means: p90 has 21 beyond it. p95 would have 10, where the
	// slowest jobs' times jump by 60%.
	b.tailQ = 0.9
	sc := b.sc
	progs := map[int]map[string]*workload.Program{}
	var streams []*stream
	if err := b.timeSetup(func(keep bool) error {
		small, err := b.buildPrograms(sc.benchmarks, 1, keep)
		if err != nil {
			return err
		}
		big, err := b.buildPrograms(sc.benchmarks, sc.bigScale, keep)
		if err != nil {
			return err
		}
		sp := b.root.StartChild("verify.stream")
		var ss []*stream
		for i := 0; i < sc.streams; i++ {
			ss = append(ss, newStream(b.seed, i, sc.streamOps))
		}
		sp.End()
		progs = map[int]map[string]*workload.Program{1: small, sc.bigScale: big}
		streams = ss
		return nil
	}); err != nil {
		return err
	}
	if sc.tamper == "stream" {
		// Self-test hook: doctor one expected load so the check must fire.
		for k, op := range streams[0].ops {
			if !op.Write {
				streams[0].expect[k]++
				break
			}
		}
	}
	golden, err := readSchemesGolden(sc.schemesGoldenPath)
	if err != nil {
		return err
	}
	memOps := map[int]map[string]int64{}
	for scale, m := range progs {
		memOps[scale] = map[string]int64{}
		for n, p := range m {
			memOps[scale][n] = countMemOps(p)
		}
	}
	jobs := trafficJobs(sc)
	var insts, accesses int64
	for _, j := range jobs {
		if j.bench == "" {
			accesses += int64(len(streams[j.stream].ops))
			continue
		}
		insts += int64(progs[j.scale][j.bench].Len())
		accesses += memOps[j.scale][j.bench]
	}
	b.extra["scales"] = []int{1, sc.bigScale}
	b.extra["runs_per_pass"] = len(jobs)
	lat := memsys.DefaultLatencies()
	passStats := make([]memsys.Stats, len(jobs))

	err = b.measure(func(p int, sp *span.Span) (passSample, error) {
		d := newDigester()
		for i, j := range jobs {
			js := sp.StartChild("run "+j.String(), span.String("config", j.config))
			t := time.Now()
			st, err := runTrafficJob(j, progs, streams, lat)
			ms := float64(time.Since(t)) / float64(time.Millisecond)
			js.End()
			b.op(err)
			if err != nil {
				continue
			}
			if sp == nil {
				b.job(j.String(), ms)
			}
			d.add(j.String(), fmt.Sprintf("%+v", st))
			if p == 0 {
				passStats[i] = st
				b.checkTrafficJob(j, &st, memOps, streams, golden)
			}
		}
		b.passDigest(p, d.sum())
		return passSample{insts: insts, accesses: accesses, requests: int64(len(jobs))}, nil
	}, nil)
	if err != nil {
		return err
	}
	if b.traced {
		b.trafficLayers(jobs, progs, streams, passStats, lat)
	}
	return nil
}

// runTrafficJob runs one job from empty modelled caches.
func runTrafficJob(j trafficJob, progs map[int]map[string]*workload.Program, streams []*stream, lat memsys.Latencies) (memsys.Stats, error) {
	if j.bench != "" {
		r, err := sim.RunFunctional(progs[j.scale][j.bench], j.config, lat)
		return r.Mem, err
	}
	sys, err := sim.NewSystem(j.config, mem.New(), lat)
	if err != nil {
		return memsys.Stats{}, err
	}
	if bad := streams[j.stream].drive(sys); bad > 0 {
		return *sys.Stats(), fmt.Errorf("%s: %d loads did not return the last value written", j, bad)
	}
	return *sys.Stats(), nil
}

// checkTrafficJob checks one job's statistics: L1 accesses equal the
// input's memory ops, and scale-1 BC and BCC@scheme traffic matches
// golden_schemes.json.
func (b *bench) checkTrafficJob(j trafficJob, st *memsys.Stats, memOps map[int]map[string]int64, streams []*stream, golden schemesGolden) {
	want := int64(0)
	if j.bench == "" {
		want = int64(len(streams[j.stream].ops))
	} else {
		want = memOps[j.scale][j.bench]
	}
	b.check(st.L1.Accesses == want, "%s: %d L1 accesses, input has %d memory ops", j, st.L1.Accesses, want)
	if j.bench == "" || j.scale != 1 {
		return
	}
	words := st.MemTrafficWords()
	base, scheme := sim.SplitConfig(j.config)
	switch {
	case j.config == "BC":
		w, ok := golden.Baseline[j.bench]
		b.check(ok && withinGolden(words, w), "%s: BC traffic %.1f, pinned %.1f", j.bench, words, w)
	case base == "BCC":
		if scheme == "" {
			scheme = "paper"
		}
		w, ok := golden.Schemes[scheme][j.bench]
		b.check(ok && withinGolden(words, w.TrafficWords), "%s: %s traffic %.1f, pinned %.1f", j.bench, j.config, words, w.TrafficWords)
	}
}
