// Flag-validation tests: bad invocations must exit 2 (the conventional
// bad-usage status) with a message that names the offending flag and the
// usage text, and must not fall through to a simulation run.
package cmd

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runExpectUsage executes the binary expecting exit status 2 and returns
// the combined output.
func runExpectUsage(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s: expected usage error, got err=%v\n%s", strings.Join(args, " "), err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("%s: exit %d, want 2\n%s", strings.Join(args, " "), code, out)
	}
	return string(out)
}

func TestCppsimFlagValidation(t *testing.T) {
	bin := build(t, "cppsim")
	cases := []struct {
		name    string
		args    []string
		needles []string
	}{
		{"trace-cap without trace-out",
			[]string{"-workload", "treeadd", "-trace-cap", "1024"},
			[]string{"-trace-cap", "-trace-out"}},
		{"metrics-out without interval",
			[]string{"-workload", "treeadd", "-metrics-out", "m.csv"},
			[]string{"-metrics-out", "-interval"}},
		{"interval without metrics-out",
			[]string{"-workload", "treeadd", "-interval", "1000"},
			[]string{"-interval", "-metrics-out"}},
		{"attr-top without attr-out",
			[]string{"-workload", "treeadd", "-attr-top", "5"},
			[]string{"-attr-top", "-attr-out"}},
		{"non-positive attr-top",
			[]string{"-workload", "treeadd", "-attr-out", "a.txt", "-attr-top", "0"},
			[]string{"-attr-top", "positive"}},
		{"unknown workload",
			[]string{"-workload", "no-such-benchmark"},
			[]string{"no-such-benchmark", "-list"}},
		{"unknown config",
			[]string{"-workload", "treeadd", "-config", "ZZZ"},
			[]string{"ZZZ"}},
		{"hist in functional mode",
			[]string{"-workload", "treeadd", "-functional", "-hist"},
			[]string{"-hist", "-functional"}},
		{"unknown compressor",
			[]string{"-workload", "treeadd", "-config", "BCC", "-compressor", "zzz"},
			[]string{"zzz", "paper", "cpack", "fpc", "bdi"}},
		{"compressor on non-compressing config",
			[]string{"-workload", "treeadd", "-config", "CPP", "-compressor", "fpc"},
			[]string{"CPP", "fpc"}},
		{"compressor on baseline config",
			[]string{"-workload", "treeadd", "-config", "BC", "-compressor", "bdi"},
			[]string{"BC", "bdi", "BCC"}},
		{"stray positional args",
			[]string{"-workload", "treeadd", "stray"},
			[]string{"unexpected arguments"}},
		// The -workload alias is deleted: an unknown flag.
		{"bench alias",
			[]string{"-bench", "treeadd"},
			[]string{"flag provided but not defined: -bench"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := runExpectUsage(t, bin, c.args...)
			for _, n := range c.needles {
				if !strings.Contains(out, n) {
					t.Errorf("output missing %q:\n%s", n, out)
				}
			}
			if !strings.Contains(out, "Usage") {
				t.Errorf("usage text not printed:\n%s", out)
			}
			if strings.Contains(out, "benchmark ") {
				t.Errorf("simulation ran despite bad flags:\n%s", out)
			}
		})
	}

	// A valid zoo scheme on a compressing config runs and self-labels;
	// the explicit default stays silent (byte-identical default output).
	out := run(t, bin, "-workload", "olden.treeadd", "-config", "BCC",
		"-compressor", "fpc", "-scale", "1", "-functional")
	expect(t, out, "compressor       fpc")
	out = run(t, bin, "-workload", "olden.treeadd", "-config", "BCC",
		"-compressor", "paper", "-scale", "1", "-functional")
	if strings.Contains(out, "compressor ") {
		t.Errorf("default scheme printed a compressor line:\n%s", out)
	}
}

func TestCppbenchFlagValidation(t *testing.T) {
	bin := build(t, "cppbench")
	t.Run("unknown figure", func(t *testing.T) {
		expect(t, runExpectUsage(t, bin, "-fig", "7"), "no figure 7", "Usage")
	})
	// The throughput harness's flags are deleted: -against, -regress and
	// the -bench{json,name,reps} trio are unknown flags. Each case also
	// asks for a cheap figure, so no case can start a full-scale run.
	retired := []string{"-against", "-regress"}
	for _, suffix := range []string{"json", "name", "reps"} {
		retired = append(retired, "-bench"+suffix)
	}
	for _, name := range retired {
		t.Run(name, func(t *testing.T) {
			out := runExpectUsage(t, bin, name, os.DevNull, "-fig", "3", "-scale", "1")
			expect(t, out, "flag provided but not defined: "+name)
		})
	}
}

// TestStrayArgumentsRejected: flag parsing stops at the first non-flag
// argument, so a stray word would silently drop every flag after it.
func TestStrayArgumentsRejected(t *testing.T) {
	for _, c := range []struct {
		bin  string
		args []string
	}{
		{"cppbench", []string{"-fig", "3", "-scale", "1", "x", "-csv"}},
		{"cppstudy", []string{"-scale", "1", "x", "-widths"}},
		{"cppverify", []string{"-seeds", "1", "x", "-ops", "5"}},
	} {
		t.Run(c.bin, func(t *testing.T) {
			out := runExpectUsage(t, build(t, c.bin), c.args...)
			expect(t, out, "unexpected arguments: x -", "Usage")
		})
	}
}

func TestCppservedFlagValidation(t *testing.T) {
	bin := build(t, "cppserved")
	out := runExpectUsage(t, bin, "stray")
	if !strings.Contains(out, "unexpected arguments") {
		t.Errorf("output missing stray-args message:\n%s", out)
	}
	// Deleted flags are unknown flags, not silently ignored ones.
	for _, args := range [][]string{
		{"-workers", "http://localhost:8081"},
		{"-worker"},
		{"-log-json"},
		{"-snap-ring", "4"},
		{"-retain", "1"},
		{"-drain-timeout", "30s"},
	} {
		out := runExpectUsage(t, bin, args...)
		if !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("%s: output missing unknown-flag message:\n%s", args[0], out)
		}
	}
}

func TestCppledgerFlagValidation(t *testing.T) {
	bin := build(t, "cppledger")
	cases := []struct {
		name    string
		args    []string
		needles []string
	}{
		{"missing ledger", nil, []string{"-ledger", "required"}},
		{"stray args", []string{"-ledger", "x.ledger", "stray"}, []string{"unexpected arguments"}},
		{"unknown dimension", []string{"-ledger", "x.ledger", "-by", "flavour"},
			[]string{"flavour", "workload"}},
		{"window with since", []string{"-ledger", "x.ledger", "-window", "1h",
			"-since", "2026-01-01T00:00:00Z"}, []string{"-window", "-since", "exclusive"}},
		{"bad since", []string{"-ledger", "x.ledger", "-since", "yesterday"},
			[]string{"-since", "yesterday"}},
		// Deleted flags are unknown flags.
		{"diff", []string{"-ledger", "x.ledger", "-diff", "y.ledger"},
			[]string{"flag provided but not defined: -diff"}},
		{"tol", []string{"-ledger", "x.ledger", "-tol", "0.5"},
			[]string{"flag provided but not defined: -tol"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := runExpectUsage(t, bin, c.args...)
			for _, n := range c.needles {
				if !strings.Contains(out, n) {
					t.Errorf("output missing %q:\n%s", n, out)
				}
			}
		})
	}

	// A missing ledger file is not an error (same as the server booting
	// fresh): zero runs, zero groups.
	out := run(t, bin, "-ledger", "does-not-exist.ledger")
	expect(t, out, "0 runs")
}
