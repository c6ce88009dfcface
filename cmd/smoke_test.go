// Smoke tests: build every CLI and run it once with tiny inputs, asserting
// a zero exit status and recognizably-shaped output. These catch wiring
// breakage (flag renames, output format drift, a main that panics) that
// package-level unit tests cannot see.
package cmd

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cppcache"
)

// build compiles ./cmd/<name> into t.TempDir and returns the binary path.
func build(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./%s: %v\n%s", name, err, out)
	}
	return bin
}

// run executes the binary and returns its combined output, failing the test
// on a non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// expect asserts that every needle appears in the output.
func expect(t *testing.T, out string, needles ...string) {
	t.Helper()
	for _, n := range needles {
		if !strings.Contains(out, n) {
			t.Errorf("output missing %q:\n%s", n, out)
		}
	}
}

func TestSmokeCppsim(t *testing.T) {
	bin := build(t, "cppsim")
	out := run(t, bin, "-workload", "olden.treeadd", "-config", "CPP", "-scale", "1")
	expect(t, out, "benchmark", "olden.treeadd", "configuration", "CPP",
		"L1 accesses", "memory traffic", "affiliated hits")
	out = run(t, bin, "-list")
	expect(t, out, "olden.treeadd", "olden.health")
	out = run(t, bin, "-workload", "olden.mst", "-config", "BC", "-scale", "1", "-functional")
	expect(t, out, "configuration    BC")
	if strings.Contains(out, "cycles") {
		t.Errorf("-functional run printed cycle counts:\n%s", out)
	}
}

func TestSmokeCppbench(t *testing.T) {
	bin := build(t, "cppbench")
	// Figure 3 is trace-only (no simulation), so the full 14-benchmark
	// sweep stays cheap even in a smoke test.
	out := run(t, bin, "-fig", "3", "-scale", "1")
	expect(t, out, "Figure 3", "olden.treeadd")
	out = run(t, bin, "-fig", "3", "-scale", "1", "-csv")
	if !strings.Contains(out, ",") {
		t.Errorf("-csv output has no commas:\n%s", out)
	}
}

// TestSmokeCppbenchBaselineCSV: under -csv, Figure 9 is a "# title" line
// and a parameter,value CSV like every other figure, so a CSV reader
// takes the whole output.
func TestSmokeCppbenchBaselineCSV(t *testing.T) {
	bin := build(t, "cppbench")
	out, err := exec.Command(bin, "-fig", "9", "-csv").Output()
	if err != nil {
		t.Fatalf("cppbench -fig 9 -csv: %v", err)
	}
	if !bytes.HasPrefix(out, []byte("# Figure 9: baseline experimental setup\n")) {
		t.Errorf("output does not open with the figure's title line:\n%s", out)
	}
	r := csv.NewReader(bytes.NewReader(out))
	r.Comment = '#'
	r.FieldsPerRecord = 2
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("-fig 9 -csv is not a two-column CSV: %v\n%s", err, out)
	}
	if len(recs) != 13 || recs[0][0] != "parameter" || recs[0][1] != "value" {
		t.Fatalf("want a parameter,value header and 12 records, got %d records: %q", len(recs), recs)
	}
	for _, rec := range recs[1:] {
		if rec[0] == "" || rec[1] == "" {
			t.Errorf("record %q has an empty field", rec)
		}
	}
}

func TestSmokeCppstudy(t *testing.T) {
	bin := build(t, "cppstudy")
	out := run(t, bin, "-scale", "1")
	expect(t, out, "Figure 3", "average compressible")
	out = run(t, bin, "-scale", "1", "-widths")
	_, ablation, _ := strings.Cut(out, "compression-width ablation")
	expect(t, ablation, "7b", "11b", "15b", "23b")
	for _, name := range cppcache.Benchmarks() {
		if strings.Count(ablation, "\n"+name+" ") != 1 {
			t.Errorf("-widths ablation has no single row for %s:\n%s", name, ablation)
		}
	}
}

func TestSmokeCppverify(t *testing.T) {
	bin := build(t, "cppverify")
	out := run(t, bin, "-seeds", "3", "-ops", "800")
	expect(t, out, "PASS", "24 runs clean", "oracle-value")
	out = run(t, bin, "-seeds", "1", "-ops", "500", "-configs", "CPP", "-workloads", "olden.treeadd", "-v")
	expect(t, out, "ok   CPP", "olden.treeadd", "2 runs clean")
}

// TestSmokeCppserved boots the observatory on an ephemeral port, launches
// one functional run over HTTP, scrapes /metrics, and shuts the server
// down gracefully with SIGTERM.
func TestSmokeCppserved(t *testing.T) {
	bin := build(t, "cppserved")
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the bound address to appear.
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never wrote its address; logs:\n%s", logs.String())
	}
	base := "http://" + addr

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v\nlogs:\n%s", path, err, logs.String())
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	expect(t, get("/readyz"), "ready")

	resp, err := http.Post(base+"/runs", "application/json",
		strings.NewReader(`{"workload":"treeadd","config":"CPP","functional":true,"scale":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /runs: status %d\n%s", resp.StatusCode, body)
	}

	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if strings.Contains(get("/runs/1"), `"state": "done"`) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	status := get("/runs/1")
	expect(t, status, `"state": "done"`, `"workload": "olden.treeadd"`)
	expect(t, get("/metrics"),
		"# TYPE cppserved_fleet_runs_total counter",
		`cppserved_fleet_runs_total{workload="olden.treeadd",config="CPP",compressor="paper",state="done"} 1`,
		`cppserved_runs{state="done"} 1`)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cppserved exited non-zero after SIGTERM: %v\nlogs:\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cppserved did not exit after SIGTERM; logs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained") {
		t.Errorf("graceful shutdown did not drain; logs:\n%s", logs.String())
	}
}

// TestSmokeLedgerDashboard is the full durability drill: boot cppserved
// with a ledger, complete runs, check /fleet and /metrics, kill the
// server with SIGKILL, simulate a torn mid-append write on the ledger
// tail, then restart on the same file and assert the replay recovered
// every intact record. Finally cppledger replays the ledger offline.
func TestSmokeLedgerDashboard(t *testing.T) {
	bin := build(t, "cppserved")
	ledgerBin := build(t, "cppledger")
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "runs.ledger")

	boot := func(addrFile string) (*exec.Cmd, *bytes.Buffer, string) {
		t.Helper()
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-ledger", ledgerPath)
		var logs bytes.Buffer
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var addr string
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				addr = strings.TrimSpace(string(b))
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if addr == "" {
			cmd.Process.Kill()
			t.Fatalf("server never wrote its address; logs:\n%s", logs.String())
		}
		// The listener answers before the boot replay; /readyz turns 200
		// once the ledger has been replayed into /fleet.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatalf("server never became ready; logs:\n%s", logs.String())
			}
		}
		return cmd, &logs, "http://" + addr
	}

	get := func(base, path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	cmd, logs, base := boot(filepath.Join(dir, "addr1"))
	defer cmd.Process.Kill()

	for _, spec := range []string{
		`{"workload":"mst","config":"CPP","functional":true,"scale":1}`,
		`{"workload":"treeadd","config":"BCC","compressor":"fpc","functional":true,"scale":1}`,
	} {
		resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /runs: status %d", resp.StatusCode)
		}
	}
	for id := 1; id <= 2; id++ {
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
			if strings.Contains(get(base, fmt.Sprintf("/runs/%d", id)), `"state": "done"`) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	expect(t, get(base, "/fleet"), `"total_runs": 2`, `"workload": "olden.mst"`,
		`"compressor": "fpc"`, `"spec_hashes"`)
	expect(t, get(base, "/fleet/workload"), `"dimensions"`, `"olden.treeadd"`)
	expect(t, get(base, "/metrics"),
		`cppserved_fleet_runs_total{workload="olden.mst",config="CPP",compressor="paper",state="done"} 1`,
		"cppserved_build_info{")

	// A run is ledgered just after it reads as done: crash only once both
	// records are on disk.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(
		run(t, ledgerBin, "-ledger", ledgerPath, "-json"), `"total_runs": 2`); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two done runs never reached the ledger")
		}
	}

	// Crash hard (no drain, no clean close) and tear the ledger tail the
	// way a crash mid-append would: a frame whose payload never finished.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	f, err := os.OpenFile(ledgerPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`cppl1 412 deadbeef {"schema":1,"run_id":99,"truncat`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cmd2, logs2, base2 := boot(filepath.Join(dir, "addr2"))
	defer cmd2.Process.Kill()
	expect(t, get(base2, "/fleet"), `"total_runs": 2`, `"workload": "olden.mst"`)
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("cppserved exited non-zero after SIGTERM: %v\nlogs:\n%s", err, logs2.String())
	}
	// Read the logs only once Wait has collected all of stderr.
	if !strings.Contains(logs2.String(), "skipped damaged records") {
		t.Errorf("restart logs never mentioned the torn tail:\n%s", logs2.String())
	}
	_ = logs

	// Offline replay: same rollup, no server.
	out := run(t, ledgerBin, "-ledger", ledgerPath)
	expect(t, out, "2 runs in 2 groups", "olden.mst", "olden.treeadd",
		"damaged records skipped", "exemplars:")
	out = run(t, ledgerBin, "-ledger", ledgerPath, "-json", "-by", "workload")
	expect(t, out, `"total_runs": 2`, `"dimensions"`)
	out = run(t, ledgerBin, "-ledger", ledgerPath, "-state", "done", "-json")
	expect(t, out, `"total_runs": 2`)
}
