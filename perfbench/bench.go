package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cppcache/internal/span"
	"cppcache/internal/stats"
	"cppcache/internal/trace"
	"cppcache/internal/workload"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// scope sizes the workloads. The benchmark always runs fullScope; the
// self-test shrinks it so that every workload finishes in seconds.
type scope struct {
	benchmarks []string // figures' and traffic's programs
	bigScale   int      // traffic's scale-convergence scale
	streams    int      // traffic's seed-generated streams
	streamOps  int      // ops per stream
	obsProgs   []string // the observatory's programs
	setupReps  int      // fewest set-ups per run; setup_s is their median
	setupSecs  float64  // set up again until this much time is spent
	// Observatory sample floors per run: the tail percentiles need well
	// over ten samples beyond them.
	minRequests, minTurnarounds   int
	goldenPath, schemesGoldenPath string
	// tamper doctors one check input ("stream", "digest") so the
	// self-test can show the check fires; empty in real runs.
	tamper string
}

func fullScope() scope {
	return scope{
		benchmarks: workload.Names(),
		bigScale:   2,
		streams:    4,
		streamOps:  40_000,
		// The six smallest scale-1 programs by memory ops (24k-62k).
		obsProgs:          []string{"olden.power", "spec95.129.compress", "spec2000.300.twolf", "olden.mst", "spec2000.197.parser", "olden.health"},
		setupReps:         5,
		setupSecs:         1,
		minRequests:       2000,
		minTurnarounds:    200,
		goldenPath:        "internal/experiments/testdata/golden.json",
		schemesGoldenPath: "testdata/golden_schemes.json",
	}
}

// passSample is one timed pass over the workload's fixed work.
type passSample struct {
	wall, cpu float64 // seconds
	insts     int64   // simulated instructions
	accesses  int64   // simulated memory accesses
	requests  int64   // requests completed
	rssMiB    float64 // peak resident set size
}

// bench accumulates one benchmark run: operations and their failures,
// set-up and pass timings, latency samples, the simulation digest and,
// for traced runs, the spans and per-layer statistics.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sc       scope

	tracer *span.Tracer // nil unless traced
	root   *span.Span

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	setupS    []float64
	passes    []passSample
	reqMs     []float64            // request latencies
	turnMs    []float64            // job turnaround latencies
	jobMs     map[string][]float64 // each fixed job's latency in every pass
	tailQ     float64              // quantile reported as req_tail_ms, set by the workload
	simDigest string
	extra     map[string]any
	layers    layers
	store     workload.DecodedStats // decoded-store traffic in the timed passes
}

func newBench(name string, seed int64, seconds float64, traced bool, sc scope) *bench {
	b := &bench{workload: name, seed: seed, seconds: seconds, traced: traced, sc: sc,
		jobMs: map[string][]float64{}, extra: map[string]any{}}
	b.layers.init()
	if traced {
		b.tracer = span.New(1 << 16)
		b.root = b.tracer.Start("perfbench", nil, span.String("workload", name), span.Int("seed", seed))
	}
	return b
}

// maxFailures bounds the failure messages kept for the report.
const maxFailures = 20

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failLocked(err.Error())
	}
}

// check records a failed output check against the operations attempted.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failLocked(fmt.Sprintf(format, args...))
}

func (b *bench) failLocked(msg string) {
	b.failed++
	if len(b.failures) < maxFailures {
		b.failures = append(b.failures, msg)
	}
}

// request records one request latency sample.
func (b *bench) request(ms float64) {
	b.mu.Lock()
	b.reqMs = append(b.reqMs, ms)
	b.mu.Unlock()
}

// turnaround records one job turnaround sample.
func (b *bench) turnaround(ms float64) {
	b.mu.Lock()
	b.turnMs = append(b.turnMs, ms)
	b.mu.Unlock()
}

// job records one pass's latency of a named job, for the workloads that
// repeat the same fixed jobs every pass (figures, traffic).
func (b *bench) job(name string, ms float64) {
	b.mu.Lock()
	b.jobMs[name] = append(b.jobMs[name], ms)
	b.mu.Unlock()
}

// latencies returns the request and turnaround samples. On a workload of
// fixed jobs both are each job's mean over the run's passes, one sample a
// job. Pooled over passes, a percentile would land on another job
// whenever a run makes one pass more or fewer. A job's mean follows the
// host's average speed over the run, as wall_s does, where its median
// picks one pass; one disturbed pass can only reorder that job among the
// others, which moves a percentile by at most the gap to its neighbours.
func (b *bench) latencies() (req, turn []float64) {
	if len(b.jobMs) == 0 {
		return b.reqMs, b.turnMs
	}
	for _, ms := range b.jobMs {
		req = append(req, stats.Mean(ms))
	}
	return req, req
}

// passDigest pins the simulation digest of pass p: every pass replays the
// same inputs, so every pass must digest identically.
func (b *bench) passDigest(p int, digest string) {
	if p == 0 {
		b.simDigest = digest
		return
	}
	b.check(digest == b.simDigest, "pass %d sim digest %s differs from pass 0 (%s)", p, digest, b.simDigest)
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// stamp is a wall and process-CPU instant.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// since returns the wall and CPU seconds elapsed since s.
func (s stamp) since() (wall, cpu float64) {
	return time.Since(s.wall).Seconds(), (cpuTime() - s.cpu).Seconds()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the highest resident set size seen while it runs,
// reading /proc/self/statm every rssEvery. A run's peak RSS is an extreme
// value over all its passes and swings with GC timing; the median of the
// per-pass peaks is steady, so max_rss_mb reports that.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes, written by the sampling goroutine until done closes
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		close(s.done)
		return s
	}
	page := int64(os.Getpagesize())
	buf := make([]byte, 128)
	sample := func() {
		n, _ := f.ReadAt(buf, 0)
		// statm: size resident shared ... (in pages)
		fields := strings.Fields(string(buf[:n]))
		if len(fields) > 1 {
			if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil && pages*page > s.peak {
				s.peak = pages * page
			}
		}
	}
	go func() {
		defer close(s.done)
		defer f.Close()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			sample()
			select {
			case <-s.stop:
				sample()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops the sampler and returns the peak in MiB.
func (s *rssSampler) end() float64 {
	select {
	case <-s.done:
	default:
		close(s.stop)
		<-s.done
	}
	return float64(s.peak) / (1 << 20)
}

// timeSetup runs set-up at least sc.setupReps times and until
// sc.setupSecs have passed, recording each duration. Only the last
// repetition keeps its products (keep=true); the throwaway ones before it
// drop each product as soon as it is built, and the heap is collected
// between repetitions, so they do not raise the run's peak memory.
func (b *bench) timeSetup(fn func(keep bool) error) error {
	start := time.Now()
	for r := 0; ; r++ {
		keep := r >= b.sc.setupReps-1 && time.Since(start).Seconds() >= b.sc.setupSecs
		runtime.GC()
		b.layers.rep = r
		t := time.Now()
		if err := fn(keep); err != nil {
			return err
		}
		b.setupS = append(b.setupS, time.Since(t).Seconds())
		if keep {
			break
		}
	}
	runtime.GC()
	return nil
}

// minPasses is the fewest passes an untraced run times, so the median
// pass survives one disturbed pass even when a pass is long.
const minPasses = 3

// measure runs timed passes until the run has measured for b.seconds,
// made minPasses passes and enough() holds; a traced run makes one
// untraced and one traced pass.
// Each pass returns its work counts; the loop adds the timings.
func (b *bench) measure(pass func(p int, sp *span.Span) (passSample, error), enough func() bool) error {
	before := workload.DecodedStoreStats()
	start := time.Now()
	for p := 0; ; p++ {
		var sp *span.Span
		if b.traced && p == 1 {
			sp = b.root.StartChild("pass", span.Int("pass", int64(p)))
		}
		rss := startRSS()
		t := now()
		ps, err := pass(p, sp)
		ps.wall, ps.cpu = t.since()
		ps.rssMiB = rss.end()
		sp.End()
		if err != nil {
			return err
		}
		b.passes = append(b.passes, ps)
		logf("pass %d: wall %.3fs cpu %.3fs", p, ps.wall, ps.cpu)
		if b.traced {
			if p == 1 {
				break
			}
			continue
		}
		if len(b.passes) >= minPasses && time.Since(start).Seconds() >= b.seconds && (enough == nil || enough()) {
			break
		}
	}
	after := workload.DecodedStoreStats()
	b.store = workload.DecodedStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		UsedBytes: after.UsedBytes,
	}
	return nil
}

// buildPrograms generates and pre-decodes the named programs at scale.
// With keep it goes through the process-wide memo and decoded store the
// simulator reads from; without, it builds throwaway copies of the same
// work, so set-up can be timed more than once.
func (b *bench) buildPrograms(names []string, scale int, keep bool) (map[string]*workload.Program, error) {
	progs := make(map[string]*workload.Program, len(names))
	var buildS, decodeS float64
	var insts, bytes int64
	for _, name := range names {
		sp := b.root.StartChild("workload.build", span.String("benchmark", name), span.Int("scale", int64(scale)))
		t := time.Now()
		var p *workload.Program
		if keep {
			var err error
			if p, err = workload.BuildShared(name, scale); err != nil {
				sp.End()
				return nil, err
			}
		} else {
			bm, err := workload.ByName(name)
			if err != nil {
				sp.End()
				return nil, err
			}
			p = bm.Build(scale)
		}
		buildS += time.Since(t).Seconds()
		sp.End()
		sp = b.root.StartChild("trace.decode", span.String("benchmark", name))
		t = time.Now()
		var d *trace.Decoded
		if keep {
			d = p.Decoded()
		} else {
			d = trace.NewDecoded(p.Insts())
		}
		decodeS += time.Since(t).Seconds()
		sp.End()
		insts += int64(d.Len())
		bytes += d.Bytes()
		if keep {
			progs[name] = p
		}
	}
	b.layers.addBuild(buildS, decodeS, insts, bytes, keep)
	return progs, nil
}

// endToEnd computes the untraced run's metrics.
func (b *bench) endToEnd() map[string]metric {
	req, turn := b.latencies()
	var walls, cpus, rss, minst, macc, reqps []float64
	for _, p := range b.passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		rss = append(rss, p.rssMiB)
		minst = append(minst, float64(p.insts)/p.wall/1e6)
		macc = append(macc, float64(p.accesses)/p.wall/1e6)
		reqps = append(reqps, float64(p.requests)/p.wall)
	}
	return map[string]metric{
		"setup_s":           {median(b.setupS), "s"},
		"wall_s":            {median(walls), "s"},
		"cpu_s":             {median(cpus), "s"},
		"max_rss_mb":        {median(rss), "MiB"},
		"minst_per_s":       {median(minst), "Minst/s"},
		"maccess_per_s":     {median(macc), "Macc/s"},
		"req_per_s":         {median(reqps), "req/s"},
		"req_p50_ms":        {quantile(req, 0.5), "ms"},
		"req_tail_ms":       {quantile(req, b.tailQ), "ms"},
		"turnaround_p50_ms": {quantile(turn, 0.5), "ms"},
		"turnaround_p90_ms": {quantile(turn, 0.9), "ms"},
	}
}

// reportFields is everything printed beside the metrics.
func (b *bench) reportFields() map[string]any {
	failFrac := 0.0
	if b.attempted > 0 {
		failFrac = float64(b.failed) / float64(b.attempted)
	}
	var walls []float64
	for _, p := range b.passes {
		walls = append(walls, p.wall)
	}
	req, turn := b.latencies()
	r := map[string]any{
		"workload":    b.workload,
		"seed":        b.seed,
		"seconds":     b.seconds,
		"traced":      b.traced,
		"sim_digest":  b.simDigest,
		"fail_frac":   failFrac,
		"attempted":   b.attempted,
		"failed":      b.failed,
		"failures":    b.failures,
		"provenance":  provenance(),
		"setup_s":     b.setupS,
		"pass_wall_s": walls,
		"decoded_store": map[string]int64{
			"hits": b.store.Hits, "misses": b.store.Misses,
			"evictions": b.store.Evictions, "used_bytes": b.store.UsedBytes,
		},
		"samples": map[string]any{
			"requests":    len(req),
			"turnarounds": len(turn),
			"job_means":   len(b.jobMs) > 0,
			"req_tail_q":  b.tailQ,
		},
	}
	for k, v := range b.extra {
		r[k] = v
	}
	if b.traced {
		r["layers"] = b.layerTable()
	}
	return r
}

// digester hashes simulated statistics in a fixed order.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

// add hashes one labelled record of values.
func (d *digester) add(label string, vals ...any) {
	fmt.Fprintf(d.h, "%s", label)
	for _, v := range vals {
		if f, ok := v.(float64); ok {
			fmt.Fprintf(d.h, " %016x", math.Float64bits(f))
			continue
		}
		fmt.Fprintf(d.h, " %v", v)
	}
	fmt.Fprintln(d.h)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
