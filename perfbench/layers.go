package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cppcache/internal/compress"
	"cppcache/internal/cpu"
	"cppcache/internal/isa"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/workload"
)

// A pipeline run interleaves the core and the hierarchy. The traced run
// isolates them on the same inputs by record-and-replay: the run's
// memsys.System is wrapped to log every access (address, value, latency)
// in order; the core is then re-run against a stub answering from that
// log, and a fresh hierarchy is fed the logged accesses. Both must
// reproduce the recorded run exactly. A fixed-latency stub would change
// the core's schedule and misattribute time.

// access is one logged hierarchy call.
type access struct {
	addr  mach.Addr
	val   mach.Word // loaded or stored value
	lat   int32
	write bool
}

// recorder logs every access of the system it wraps.
type recorder struct {
	memsys.System
	log []access
}

func (r *recorder) Read(a mach.Addr) (mach.Word, int) {
	v, l := r.System.Read(a)
	r.log = append(r.log, access{a, v, int32(l), false})
	return v, l
}

func (r *recorder) Write(a mach.Addr, v mach.Word) int {
	l := r.System.Write(a, v)
	r.log = append(r.log, access{a, v, int32(l), true})
	return l
}

// replayStub answers the core from a recorded log, in order, counting
// calls that differ from the log.
type replayStub struct {
	log   []access
	next  int
	bad   int
	stats memsys.Stats
}

func (s *replayStub) take(a mach.Addr, write bool) access {
	if s.next >= len(s.log) {
		s.bad++
		return access{lat: 1}
	}
	e := s.log[s.next]
	s.next++
	if e.addr != a || e.write != write {
		s.bad++
	}
	return e
}

func (s *replayStub) Read(a mach.Addr) (mach.Word, int) {
	e := s.take(a, false)
	return e.val, int(e.lat)
}

func (s *replayStub) Write(a mach.Addr, v mach.Word) int {
	e := s.take(a, true)
	if e.val != v {
		s.bad++
	}
	return int(e.lat)
}

func (s *replayStub) Stats() *memsys.Stats { return &s.stats }
func (s *replayStub) Name() string         { return "replay" }

// hierStat accumulates one configuration's isolated hierarchy time.
type hierStat struct {
	busy, streamBusy     float64 // seconds on program accesses / stream ops
	accesses, streamOps  int64
	buildUs, allocsBuild float64
	stats                memsys.Stats // summed over the pass's runs
}

// codecStat accumulates one scheme's isolated line-codec time.
type codecStat struct {
	encode, decode float64 // seconds
	lines, fit     int64
}

// layers holds the traced run's per-layer measurements.
type layers struct {
	rep             int       // current set-up repetition
	buildS, decodeS []float64 // per set-up repetition
	insts, bytes    int64     // of the kept set-up
	cpuBusy         float64
	cpuInsts        int64
	hier            map[string]*hierStat // by base configuration
	codec           map[string]*codecStat
	memBusy         float64
	memOps, pages   int64
	passSim         float64            // simulation seconds inside the pass
	traceRuns       int                // simulation runs in the traced pass
	serve           map[string]float64 // serve, ledger and span metrics by name
}

func (l *layers) init() {
	l.hier = map[string]*hierStat{}
	for _, c := range trafficConfigs {
		l.hier[c] = &hierStat{}
	}
	l.codec = map[string]*codecStat{}
	for _, s := range compress.Schemes() {
		l.codec[s] = &codecStat{}
	}
	l.serve = map[string]float64{}
}

// addBuild adds build and decode time to the current set-up repetition.
func (l *layers) addBuild(buildS, decodeS float64, insts, bytes int64, keep bool) {
	for len(l.buildS) <= l.rep {
		l.buildS = append(l.buildS, 0)
		l.decodeS = append(l.decodeS, 0)
	}
	l.buildS[l.rep] += buildS
	l.decodeS[l.rep] += decodeS
	if keep {
		l.insts += insts
		l.bytes += bytes
	}
}

// hierOf maps a possibly scheme-qualified configuration to its layer.
func (l *layers) hierOf(config string) *hierStat {
	base, _ := sim.SplitConfig(config)
	return l.hier[base]
}

// observeRun adds a pass run's statistics to its hierarchy's totals.
func (l *layers) observeRun(config string, st *memsys.Stats) {
	h := l.hierOf(config)
	addStats(&h.stats, st)
}

func addStats(t, s *memsys.Stats) {
	t.L1.Accesses += s.L1.Accesses
	t.L1.Misses += s.L1.Misses
	t.L2.Accesses += s.L2.Accesses
	t.L2.Misses += s.L2.Misses
	t.PfBufHitsL1 += s.PfBufHitsL1
	t.PfBufHitsL2 += s.PfBufHitsL2
	t.PfIssuedL1 += s.PfIssuedL1
	t.PfIssuedL2 += s.PfIssuedL2
	t.AffHitsL1 += s.AffHitsL1
	t.AffHitsL2 += s.AffHitsL2
	t.AffWordsPrefetchedL1 += s.AffWordsPrefetchedL1
	t.AffWordsPrefetchedL2 += s.AffWordsPrefetchedL2
}

// pipelineLayers records one pipeline run, then times the core replayed
// against the log and a fresh hierarchy fed the logged accesses.
func (b *bench) pipelineLayers(p *workload.Program, config string, lat memsys.Latencies) (cpu.Result, memsys.Stats, error) {
	sys, err := sim.NewSystem(config, mem.New(), lat)
	if err != nil {
		return cpu.Result{}, memsys.Stats{}, err
	}
	rec := &recorder{System: sys}
	sp := b.root.StartChild("sim.record", span.String("benchmark", p.Name), span.String("config", config))
	c, err := cpu.New(cpu.DefaultParams(), rec)
	if err != nil {
		sp.End()
		return cpu.Result{}, memsys.Stats{}, err
	}
	res := c.Run(p.Replay())
	sp.End()
	st := *sys.Stats()
	if res.ValueMismatches > 0 {
		return res, st, fmt.Errorf("%s on %s: %d load value mismatches", p.Name, config, res.ValueMismatches)
	}

	stub := &replayStub{log: rec.log}
	core, err := cpu.New(cpu.DefaultParams(), stub)
	if err != nil {
		return res, st, err
	}
	sp = b.root.StartChild("cpu.replay", span.String("benchmark", p.Name), span.String("config", config))
	t := time.Now()
	replayed := core.Run(p.Replay())
	b.layers.cpuBusy += time.Since(t).Seconds()
	sp.End()
	b.layers.cpuInsts += replayed.Instructions
	if replayed != res || stub.bad > 0 || stub.next != len(rec.log) {
		return res, st, fmt.Errorf("%s on %s: replayed core diverged (cycles %d vs %d, %d bad accesses)",
			p.Name, config, replayed.Cycles, res.Cycles, stub.bad)
	}

	h, err := sim.NewSystem(config, mem.New(), lat)
	if err != nil {
		return res, st, err
	}
	sp = b.root.StartChild("hier.replay", span.String("benchmark", p.Name), span.String("config", config))
	t = time.Now()
	bad := 0
	for _, a := range rec.log {
		if a.write {
			if h.Write(a.addr, a.val) != int(a.lat) {
				bad++
			}
		} else if v, l := h.Read(a.addr); v != a.val || l != int(a.lat) {
			bad++
		}
	}
	hs := b.layers.hierOf(config)
	hs.busy += time.Since(t).Seconds()
	sp.End()
	hs.accesses += int64(len(rec.log))
	if bad > 0 || *h.Stats() != st {
		return res, st, fmt.Errorf("%s on %s: replayed hierarchy diverged (%d accesses differ)", p.Name, config, bad)
	}
	return res, st, nil
}

// functionalLayers times a fresh hierarchy fed a program's accesses in
// program order, which must reproduce the pass's functional run exactly.
func (b *bench) functionalLayers(p *workload.Program, config string, lat memsys.Latencies, want memsys.Stats) error {
	h, err := sim.NewSystem(config, mem.New(), lat)
	if err != nil {
		return err
	}
	d := p.Decoded()
	ops, addrs, values := d.Ops(), d.Addrs(), d.Values()
	sp := b.root.StartChild("hier.replay", span.String("benchmark", p.Name), span.String("config", config))
	t := time.Now()
	var n, bad int64
	for i, op := range ops {
		switch op {
		case isa.OpLoad:
			if v, _ := h.Read(addrs[i]); v != values[i] {
				bad++
			}
			n++
		case isa.OpStore:
			h.Write(addrs[i], values[i])
			n++
		}
	}
	hs := b.layers.hierOf(config)
	hs.busy += time.Since(t).Seconds()
	sp.End()
	hs.accesses += n
	if bad > 0 || *h.Stats() != want {
		return fmt.Errorf("%s on %s: replayed hierarchy diverged from the pass (%d bad loads)", p.Name, config, bad)
	}
	return nil
}

// streamLayers times a fresh hierarchy fed a stream without the oracle.
func (b *bench) streamLayers(s *stream, config string, lat memsys.Latencies, want memsys.Stats) error {
	h, err := sim.NewSystem(config, mem.New(), lat)
	if err != nil {
		return err
	}
	sp := b.root.StartChild("hier.replay.stream", span.String("config", config))
	t := time.Now()
	for _, op := range s.ops {
		if op.Write {
			h.Write(op.Addr, op.Val)
		} else {
			h.Read(op.Addr)
		}
	}
	hs := b.layers.hierOf(config)
	hs.streamBusy += time.Since(t).Seconds()
	sp.End()
	hs.streamOps += int64(len(s.ops))
	if *h.Stats() != want {
		return fmt.Errorf("stream on %s: replayed hierarchy diverged from the pass", config)
	}
	return nil
}

// accessFn visits an input's accesses in order.
type accessFn func(visit func(write bool, a mach.Addr, v mach.Word))

// progAccesses visits a program's loads and stores in program order.
func progAccesses(p *workload.Program) accessFn {
	return func(visit func(bool, mach.Addr, mach.Word)) {
		d := p.Decoded()
		ops, addrs, values := d.Ops(), d.Addrs(), d.Values()
		for i, op := range ops {
			switch op {
			case isa.OpLoad:
				visit(false, addrs[i], values[i])
			case isa.OpStore:
				visit(true, addrs[i], values[i])
			}
		}
	}
}

// streamAccesses visits a stream's ops.
func streamAccesses(s *stream) accessFn {
	return func(visit func(bool, mach.Addr, mach.Word)) {
		for _, op := range s.ops {
			visit(op.Write, op.Addr, op.Val)
		}
	}
}

// lineWords is the 64-B line the codec layer encodes.
const lineWords = 16

// dataLayers times internal/mem taking an input's raw reads and writes,
// then every scheme encoding and decoding the 64-B lines they touch (their
// final contents). A decode that does not reproduce its line fails.
func (b *bench) dataLayers(label string, each accessFn) {
	m := mem.New()
	sp := b.root.StartChild("mem.replay", span.String("input", label))
	t := time.Now()
	var n int64
	each(func(write bool, a mach.Addr, v mach.Word) {
		if write {
			m.WriteWord(a, v)
		} else {
			m.ReadWord(a)
		}
		n++
	})
	b.layers.memBusy += time.Since(t).Seconds()
	sp.End()
	b.layers.memOps += n
	b.layers.pages += int64(m.PagesTouched())

	seen := map[mach.Addr]bool{}
	var lines []mach.Addr
	each(func(_ bool, a mach.Addr, _ mach.Word) {
		l := a &^ (lineWords*mach.WordBytes - 1)
		if !seen[l] {
			seen[l] = true
			lines = append(lines, l)
		}
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	words := make([]mach.Word, len(lines)*lineWords)
	for i, l := range lines {
		m.ReadLine(l, words[i*lineWords:(i+1)*lineWords])
	}
	decoded := make([]mach.Word, len(words))
	encs := make([]compress.Encoded, len(lines))
	for _, name := range compress.Schemes() {
		c, err := compress.Get(name)
		b.op(err)
		if err != nil {
			continue
		}
		cs := b.layers.codec[name]
		sp := b.root.StartChild("compress.encode", span.String("scheme", name), span.String("input", label))
		t := time.Now()
		for i, l := range lines {
			encs[i] = c.CompressLine(words[i*lineWords:(i+1)*lineWords], l)
		}
		cs.encode += time.Since(t).Seconds()
		sp.End()
		sp = b.root.StartChild("compress.decode", span.String("scheme", name), span.String("input", label))
		t = time.Now()
		bad := 0
		for i, l := range lines {
			if err := c.DecompressLine(encs[i], l, decoded[i*lineWords:(i+1)*lineWords]); err != nil {
				bad++
			}
		}
		cs.decode += time.Since(t).Seconds()
		sp.End()
		for i := range lines {
			for k := i * lineWords; k < (i+1)*lineWords; k++ {
				if decoded[k] != words[k] {
					bad++
					break
				}
			}
		}
		b.check(bad == 0, "%s: %s failed to round-trip %d of %d lines", label, name, bad, len(lines))
		for i, l := range lines {
			if c.LineHalves(words[i*lineWords:(i+1)*lineWords], l) <= lineWords {
				cs.fit++
			}
		}
		cs.lines += int64(len(lines))
	}
}

// buildReps is how many systems of each configuration buildLayers builds.
const buildReps = 32

// buildLayers measures per-run construction cost: the time and heap
// allocations of sim.NewSystem over a fresh memory, per configuration.
func (b *bench) buildLayers() {
	lat := memsys.DefaultLatencies()
	var ms runtime.MemStats
	for _, cfg := range trafficConfigs {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		sp := b.root.StartChild("sim.build", span.String("config", cfg))
		t := time.Now()
		for i := 0; i < buildReps; i++ {
			if _, err := sim.NewSystem(cfg, mem.New(), lat); err != nil {
				b.op(err)
			}
		}
		el := time.Since(t)
		sp.End()
		runtime.ReadMemStats(&ms)
		h := b.layers.hier[cfg]
		h.buildUs = float64(el.Microseconds()) / buildReps
		h.allocsBuild = float64(ms.Mallocs-before) / buildReps
	}
}

// trafficLayers isolates every job of the pass: hierarchies replaying the
// program accesses and streams, then the codecs and memory on each input.
func (b *bench) trafficLayers(jobs []trafficJob, progs map[int]map[string]*workload.Program,
	streams []*stream, passStats []memsys.Stats, lat memsys.Latencies) {
	b.layers.traceRuns = len(jobs)
	for i, j := range jobs {
		var err error
		if j.bench == "" {
			err = b.streamLayers(streams[j.stream], j.config, lat, passStats[i])
		} else {
			err = b.functionalLayers(progs[j.scale][j.bench], j.config, lat, passStats[i])
		}
		b.op(err)
		b.layers.observeRun(j.config, &passStats[i])
	}
	for _, scale := range []int{1, b.sc.bigScale} {
		for _, n := range b.sc.benchmarks {
			b.dataLayers(fmt.Sprintf("%s@%d", n, scale), progAccesses(progs[scale][n]))
		}
	}
	for i, s := range streams {
		b.dataLayers(fmt.Sprintf("stream%d", i), streamAccesses(s))
	}
	b.buildLayers()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedWall is the wall time of the traced run's traced pass (0 before
// it ran).
func (b *bench) tracedWall() float64 {
	if len(b.passes) < 2 {
		return 0
	}
	return b.passes[1].wall
}

// layerMetrics is the traced run's per-layer metric set. Every name is
// always present; a layer the workload does not run reports 0.
func (b *bench) layerMetrics() map[string]metric {
	l := &b.layers
	pass := 0.0
	if len(b.passes) > 0 {
		pass = b.passes[0].wall
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("workload.build_s", median(l.buildS), "s")
	put("workload.insts", float64(l.insts), "count")
	put("trace.decode_s", median(l.decodeS), "s")
	put("trace.bytes_per_inst", ratio(float64(l.bytes), float64(l.insts)), "B/inst")
	put("trace.pass_decodes", float64(b.store.Misses), "count")
	put("cpu.busy_s", l.cpuBusy, "s")
	put("cpu.ns_per_inst", 1e9*ratio(l.cpuBusy, float64(l.cpuInsts)), "ns")
	put("cpu.share", ratio(l.cpuBusy, pass), "ratio")

	var hierBusy, otherBusy float64
	for _, cfg := range trafficConfigs {
		h := l.hier[cfg]
		busy := h.busy + h.streamBusy
		hierBusy += busy
		prefix := "hier." + cfg
		if cfg == "CPP" {
			prefix = "core.CPP"
			put(prefix+".stream_ns_per_access", 1e9*ratio(h.streamBusy, float64(h.streamOps)), "ns")
			put(prefix+".allocs_per_build", h.allocsBuild, "count")
			put(prefix+".aff_useful_frac", ratio(float64(h.stats.AffHitsL1+h.stats.AffHitsL2),
				float64(h.stats.AffWordsPrefetchedL1+h.stats.AffWordsPrefetchedL2)), "ratio")
			put(prefix+".share", ratio(busy, pass), "ratio")
		} else {
			otherBusy += busy
		}
		put(prefix+".busy_s", busy, "s")
		put(prefix+".ns_per_access", 1e9*ratio(h.busy, float64(h.accesses)), "ns")
		put(prefix+".build_us", h.buildUs, "us")
	}
	bcp := l.hier["BCP"].stats
	put("hier.BCP.pf_useful_frac", ratio(float64(bcp.PfBufHitsL1+bcp.PfBufHitsL2), float64(bcp.PfIssuedL1+bcp.PfIssuedL2)), "ratio")
	put("hier.share", ratio(otherBusy, pass), "ratio")

	for _, s := range compress.Schemes() {
		c := l.codec[s]
		put("compress."+s+".encode_ns", 1e9*ratio(c.encode, float64(c.lines)), "ns")
		put("compress."+s+".decode_ns", 1e9*ratio(c.decode, float64(c.lines)), "ns")
		put("compress."+s+".fit_frac", ratio(float64(c.fit), float64(c.lines)), "ratio")
	}
	put("mem.ns_per_op", 1e9*ratio(l.memBusy, float64(l.memOps)), "ns")
	put("mem.pages", float64(l.pages), "count")

	simTime, simPass := pass, pass // figures and traffic: the pass is all simulation
	if b.workload == "observatory" {
		// The server's run spans come from the traced pass.
		simTime, simPass = l.passSim, b.tracedWall()
		l.serve["serve.share"] = 1 - ratio(simTime, simPass)
	}
	put("sim.residual_s", simTime-l.cpuBusy-hierBusy, "s")
	put("sim.trace_overhead_s", b.tracedWall()-pass, "s")
	put("sim.share", ratio(simTime, simPass), "ratio")
	for _, name := range serveLayerMetrics {
		put(name.name, l.serve[name.name], name.unit)
	}
	return m
}

// layerTable summarises each layer's self time, share of the pass and
// counts, for the report line.
func (b *bench) layerTable() []map[string]any {
	l := &b.layers
	pass := 0.0
	if len(b.passes) > 0 {
		pass = b.passes[0].wall
	}
	row := func(name string, self float64, counts map[string]any) map[string]any {
		return map[string]any{"layer": name, "self_s": self, "share": ratio(self, pass), "counts": counts}
	}
	rows := []map[string]any{
		row("cpu", l.cpuBusy, map[string]any{"insts": l.cpuInsts}),
	}
	for _, cfg := range trafficConfigs {
		h := l.hier[cfg]
		name := "hier." + cfg
		if cfg == "CPP" {
			name = "core.CPP"
		}
		rows = append(rows, row(name, h.busy+h.streamBusy, map[string]any{
			"accesses": h.accesses, "stream_ops": h.streamOps,
			"l1_misses": h.stats.L1.Misses, "l2_misses": h.stats.L2.Misses}))
	}
	for _, s := range compress.Schemes() {
		c := l.codec[s]
		rows = append(rows, row("compress."+s, c.encode+c.decode, map[string]any{"lines": c.lines, "fit": c.fit}))
	}
	rows = append(rows, row("mem", l.memBusy, map[string]any{"ops": l.memOps, "pages": l.pages}))
	if b.workload == "observatory" {
		traced := b.tracedWall()
		rows = append(rows,
			map[string]any{"layer": "sim (server spans, traced pass)", "self_s": l.passSim, "share": ratio(l.passSim, traced)},
			map[string]any{"layer": "serve (traced pass, no simulation running)", "self_s": traced - l.passSim,
				"share": 1 - ratio(l.passSim, traced)})
	}
	rows = append(rows, map[string]any{"layer": "pass", "self_s": pass,
		"note": "compress and mem run inside the hierarchies; they are timed alone, not subtracted from the pass"})
	return rows
}
