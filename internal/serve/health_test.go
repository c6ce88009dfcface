package serve

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestReadyzLifecycle: /readyz is 503 with a Retry-After before boot
// replay completes and after draining starts, 200 in between.
func TestReadyzLifecycle(t *testing.T) {
	ts, reg := newTestServer(t)
	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		_ = body
		return resp
	}

	reg.SetReady(false)
	if resp := get(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while booting: status %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 missing Retry-After")
	}

	reg.SetReady(true)
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz when ready: status %d, want 200", resp.StatusCode)
	}

	reg.Drain(time.Second)
	if resp := get(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz draining 503 missing Retry-After")
	}
}

// TestReadyzReasons: the 503 body names the phase, so probes and humans
// can tell a booting server from a draining one.
func TestReadyzReasons(t *testing.T) {
	_, reg := newTestServer(t)
	reg.SetReady(false)
	if ready, reason := reg.Readiness(); ready || reason != "booting" {
		t.Fatalf("booting: ready=%v reason=%q", ready, reason)
	}
	reg.SetReady(true)
	if ready, _ := reg.Readiness(); !ready {
		t.Fatal("ready flag did not take")
	}
	reg.Drain(time.Second)
	if ready, reason := reg.Readiness(); ready || reason != "draining" {
		t.Fatalf("draining: ready=%v reason=%q", ready, reason)
	}
}

// TestLaunchBackpressureRetryAfter: both 429 (queue full) and 503
// (draining) advise a one-second Retry-After.
func TestLaunchBackpressureRetryAfter(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1, MaxQueue: 1}, stall)
	// Stall the slot and fill the queue.
	launch(t, ts, stallSpec(""))
	launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":2}`)

	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/runs", "application/json",
			strings.NewReader(`{"workload":"mst","config":"CPP","functional":true,"scale":3}`))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		return resp
	}

	if resp := post(); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	} else if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After %q, want 1", got)
	}

	go reg.Drain(5 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := post()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if got := resp.Header.Get("Retry-After"); got != "1" {
				t.Fatalf("503 Retry-After %q, want 1", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never started draining (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetryHintsOnTheWire: every SSE stream opens with a 100 ms reconnect
// hint, and a draining server's 503s on /readyz and POST /sweeps advise a
// one-second Retry-After, like those of POST /runs.
func TestRetryHintsOnTheWire(t *testing.T) {
	ts, reg := newTestServer(t)
	run := waitDone(t, ts, launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`).ID)
	sweep := `{"workloads":["mst"],"configs":["CPP"],"scales":[1],"functional":true}`
	sw := waitSweep(t, ts, launchSweep(t, ts, sweep).ID)
	for _, path := range []string{fmt.Sprintf("/runs/%d/stream", run.ID),
		fmt.Sprintf("/sweeps/%d/stream", sw.ID)} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		first, err := bufio.NewReader(resp.Body).ReadString('\n')
		resp.Body.Close()
		if first != "retry: 100\n" {
			t.Errorf("%s: first line %q (err %v), want \"retry: 100\"", path, first, err)
		}
	}

	reg.Drain(5 * time.Second)
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	launched, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []*http.Response{ready, launched} {
		readAll(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Errorf("%s while draining: status %d, Retry-After %q, want 503 and 1",
				resp.Request.URL.Path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if n := reg.Counters().RejectedDraining; n != 1 {
		t.Errorf("draining rejections %d, want 1 (the sweep)", n)
	}
}
