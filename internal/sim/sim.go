// Package sim wires a workload trace, a cache configuration and the
// processor core together into one run, and provides a faster
// functional-only mode (no pipeline timing) for traffic and miss-rate
// studies.
package sim

import (
	"context"
	"fmt"
	"strings"

	"cppcache/internal/core"
	"cppcache/internal/cpu"
	"cppcache/internal/hier"
	"cppcache/internal/isa"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
	"cppcache/internal/span"
	"cppcache/internal/workload"
)

// Configs returns the paper's five cache configurations in presentation
// order (§4.1).
func Configs() []string { return []string{"BC", "BCC", "HAC", "BCP", "CPP"} }

// ExtraConfigs returns the related-work configurations implemented beyond
// the paper's five: VC (Jouppi's victim cache, the paper's reference [3])
// and LCC (line-level compression cache, the paper's reference [6]).
func ExtraConfigs() []string { return []string{"VC", "LCC"} }

// NewSystem builds the named cache hierarchy over main memory m with the
// given latencies. A config name may carry an "@scheme" suffix selecting
// the line-compression scheme (see compressor.go); the built system's
// Name() preserves the suffix. CPP ablations are named by CPPVariant.
func NewSystem(name string, m *mem.Memory, lat memsys.Latencies) (memsys.System, error) {
	base, canonical, comp, err := resolveConfig(name)
	if err != nil {
		return nil, err
	}
	switch base {
	case "BC":
		cfg := hier.BaselineConfig()
		cfg.Lat = lat
		return hier.NewStandard(cfg, m)
	case "BCC":
		cfg := hier.CompressedConfig()
		cfg.Lat = lat
		cfg.Name = canonical
		cfg.Comp = comp
		return hier.NewStandard(cfg, m)
	case "HAC":
		cfg := hier.HighAssocConfig()
		cfg.Lat = lat
		return hier.NewStandard(cfg, m)
	case "BCP":
		cfg := hier.PrefetchConfig()
		cfg.Lat = lat
		return hier.NewPrefetch(cfg, m)
	case "VC":
		cfg := hier.VictimConfig()
		cfg.Lat = lat
		return hier.NewVictim(cfg, m)
	case "LCC":
		cfg := hier.LCCConfig()
		cfg.Lat = lat
		cfg.Name = canonical
		cfg.Comp = comp
		return hier.NewLCC(cfg, m)
	}
	if mask, victimPlacement, ok := cppVariant(base); ok {
		cfg := core.DefaultConfig()
		cfg.Lat = lat
		cfg.Name, cfg.Mask, cfg.VictimPlacement = base, mask, victimPlacement
		return core.New(cfg, m)
	}
	return nil, fmt.Errorf("sim: unknown configuration %q (known: %v)",
		base, append(Configs(), ExtraConfigs()...))
}

// Result is one benchmark x configuration run.
type Result struct {
	Benchmark string
	Config    string
	CPU       cpu.Result
	Mem       memsys.Stats
}

// Options select what one run attaches. The zero value is a plain timing
// run: full pipeline, no recorder, no cancellation and no spans.
type Options struct {
	// Functional replays only the memory operations of the program, in
	// program order, with no pipeline model. It is an order of magnitude
	// faster and produces identical traffic and miss statistics for
	// studies that do not need cycles; cycle counts are zero. With no
	// pipeline clock, the operation index stands in for time (one op per
	// "cycle" in snapshots and traces).
	Functional bool
	// Recorder, when non-nil, is attached to the core and the memory
	// hierarchy, and finished (trailing snapshot emitted) before Run
	// returns, also when the run is canceled, so any snapshots already
	// published stay consistent. nil records nothing.
	Recorder *obs.Recorder
	// Ctx, when non-nil, cancels the run cooperatively: the main loops
	// poll it every few thousand cycles/ops and abandon the run with
	// ctx's error. nil means context.Background().
	Ctx context.Context
	// Span, when non-nil, parents the run's stage spans (sim.build,
	// sim.run, sim.finish), making the wall-clock split between system
	// construction, simulation and recorder teardown visible per run.
	// nil records nothing.
	Span *span.Span
}

// Run simulates the program on the named configuration, with full
// pipeline timing unless o.Functional is set.
func Run(p *workload.Program, config string, lat memsys.Latencies, o Options) (Result, error) {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rec := o.Recorder
	build := o.Span.StartChild("sim.build",
		span.String("benchmark", p.Name), span.String("config", config))
	m := mem.New()
	sys, err := NewSystem(config, m, lat)
	if err != nil {
		build.End()
		return Result{}, err
	}
	var c *cpu.Core
	if !o.Functional {
		if c, err = cpu.New(cpu.DefaultParams(), sys); err != nil {
			build.End()
			return Result{}, err
		}
	}
	if rec != nil {
		// Every system exposes its stats block; hierarchies implementing
		// obs.Attachable additionally get event/fill hooks.
		rec.AttachStats(sys.Stats())
		if a, ok := sys.(obs.Attachable); ok {
			a.SetRecorder(rec)
		}
	}
	rec.AttachMemPages(m.PagesTouched)
	if c != nil {
		c.SetRecorder(rec)
	}
	build.End()

	running := o.Span.StartChild("sim.run")
	res := Result{Benchmark: p.Name, Config: config}
	var op, mismatches int64
	if c != nil {
		// Replay the shared pre-decoded trace: the core fetches straight
		// from its struct-of-arrays buffers, which any number of
		// concurrent runs share read-only.
		res.CPU, err = c.RunContext(ctx, p.Decoded())
		running.SetAttrs(span.Int("cycles", int64(res.CPU.Cycles)))
		mismatches = res.CPU.ValueMismatches
	} else if op, mismatches, err = replayMemOps(ctx, p, sys, rec); err == nil {
		running.SetAttrs(span.Int("ops", op))
	}
	running.End()
	finish := o.Span.StartChild("sim.finish")
	rec.Finish()
	finish.End()

	switch {
	case err != nil && c != nil:
		return Result{}, fmt.Errorf("sim: %s on %s canceled at cycle %d: %w",
			p.Name, config, res.CPU.Cycles, err)
	case err != nil:
		return Result{}, fmt.Errorf("sim: %s on %s (functional) canceled at op %d: %w",
			p.Name, config, op, err)
	case mismatches > 0 && c != nil:
		return Result{}, fmt.Errorf("sim: %s on %s: %d load value mismatches (cache model corrupted data)",
			p.Name, config, mismatches)
	case mismatches > 0:
		return Result{}, fmt.Errorf("sim: %s on %s (functional): %d load value mismatches",
			p.Name, config, mismatches)
	}
	res.Mem = *sys.Stats()
	return res, nil
}

// RunFunctional is Run in functional mode with nothing attached.
func RunFunctional(p *workload.Program, config string, lat memsys.Latencies) (Result, error) {
	return Run(p, config, lat, Options{Functional: true})
}

// funcCancelCheckEvery is the cadence, in replayed memory ops, of the
// functional loop's cooperative cancellation poll.
const funcCancelCheckEvery = 4096

// replayMemOps is the functional loop: it replays the program's loads and
// stores on sys in program order, polling ctx every funcCancelCheckEvery
// ops. It returns the ops replayed, the loads that read back a wrong
// value and, when ctx was canceled, ctx's error.
func replayMemOps(ctx context.Context, p *workload.Program, sys memsys.System, rec *obs.Recorder) (op, mismatches int64, err error) {
	// Replay the shared pre-decoded trace. The functional loop touches
	// only four of the record's eight fields, so the struct-of-arrays
	// buffers keep every byte it reads hot and sequential.
	d := p.Decoded()
	ops, addrs, values, pcs := d.Ops(), d.Addrs(), d.Values(), d.PCs()
	done := ctx.Done()
	for i := range ops {
		if done != nil && op%funcCancelCheckEvery == 0 {
			select {
			case <-done:
				return op, mismatches, ctx.Err()
			default:
			}
		}
		switch ops[i] {
		case isa.OpLoad:
			rec.SetAccessPC(pcs[i])
			if v, _ := sys.Read(addrs[i]); v != values[i] {
				mismatches++
			}
		case isa.OpStore:
			rec.SetAccessPC(pcs[i])
			sys.Write(addrs[i], values[i])
		}
		op++
		rec.OpTick(op)
	}
	return op, mismatches, nil
}

// CPPVariant names a CPP hierarchy with explicit design knobs for the
// ablation studies: the affiliated-line mask (the paper pairs line n with
// n^0x1) and the victim-placement policy (§3.3). The paper's design is
// plain "CPP"; other knobs read "CPP(mask=0x2)", "CPP-novictim" or
// "CPP(mask=0x2)-novictim". NewSystem accepts exactly these names.
func CPPVariant(mask uint32, victimPlacement bool) string {
	name := "CPP"
	if mask != 1 {
		name = fmt.Sprintf("CPP(mask=%#x)", mask)
	}
	if !victimPlacement {
		name += "-novictim"
	}
	return name
}

// cppVariant parses a name CPPVariant returns. Any other spelling of the
// same knobs is rejected, so one design has one name.
func cppVariant(name string) (mask uint32, victimPlacement, ok bool) {
	rest, noVictim := strings.CutSuffix(name, "-novictim")
	mask = 1
	if rest != "CPP" {
		if _, err := fmt.Sscanf(rest, "CPP(mask=%v)", &mask); err != nil {
			return 0, false, false
		}
	}
	return mask, !noVictim, CPPVariant(mask, !noVictim) == name
}
