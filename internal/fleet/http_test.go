package fleet_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aspeo/internal/fault"
	"aspeo/internal/fleet"
	"aspeo/internal/report"
)

// TestFleetSmokeHTTP is the control plane's end-to-end smoke test (the
// `make smoke-fleet` target): start the server, submit 8 governor and 4
// controller sessions over HTTP, poll every GET route while they run,
// stream one to completion, assert the rollup and metrics, then drain
// and verify intake is closed.
//
// The concurrent poll is the race guard for the single-owner device
// model: a phone's PMU, Monsoon monitor and sysfs tree carry no locks,
// so under -race any route that reached a live device from the HTTP
// goroutines would be reported here. Each controller session stalls for
// a moment of wall time at its first cycle (the chaos harness's stall,
// invisible to the simulated cell), which keeps live phones on the
// workers while the poller runs.
func TestFleetSmokeHTTP(t *testing.T) {
	prof, target := goldenProfile(t)
	m := fleet.NewManager(fleet.Options{
		Workers: 4,
		Chaos:   fault.ProcessPlan{StallAtCycle: 1, StallFor: 300 * time.Millisecond},
	})
	srv := httptest.NewServer(fleet.NewServer(m))
	defer srv.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Invalid submissions are usage errors, not accepted sessions.
	if code, _ := post("/api/v1/sessions", `{"app":"no-such-app"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown app: status %d, want 400", code)
	}
	if code, _ := post("/api/v1/sessions", `{"app":`); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", code)
	}
	if code, _ := post("/api/v1/sessions", `{"app":"spotify","bogus_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", code)
	}
	// The engine switch is gone; configs that still name one are refused.
	if code, body := post("/api/v1/sessions", `{"app":"spotify","engine":"fixed"}`); code != http.StatusBadRequest || !strings.Contains(string(body), "engine") {
		t.Fatalf("removed engine field: status %d, body %s, want 400 naming it", code, body)
	}
	if code, _ := post("/api/v1/sessions", `{"app":"spotify","count":-3}`); code != http.StatusBadRequest {
		t.Fatalf("negative count: status %d, want 400", code)
	}

	// Submit 8 sessions at consecutive seeds in one request.
	code, body := post("/api/v1/sessions", `{"app":"spotify","seed":100,"count":8,"run_for_s":2}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	var created struct {
		Sessions []fleet.SessionView `json:"sessions"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if len(created.Sessions) != 8 {
		t.Fatalf("submitted %d sessions, want 8", len(created.Sessions))
	}
	for i, v := range created.Sessions {
		if want := int64(100 + i); v.Config.Seed != want {
			t.Fatalf("session %d seed %d, want %d", i, v.Config.Seed, want)
		}
	}
	first := created.Sessions[0]

	// Four controller sessions on the stored golden profile: they drive
	// the perf tool's PMU reads and the actuator's sysfs writes, and
	// fill the flight recorder behind /trace.
	code, body = post("/api/v1/sessions", fmt.Sprintf(
		`{"app":"spotify","seed":200,"count":4,"run_for_s":4,"controller":true,"profile":%q,"target_gips":%g}`,
		prof, target))
	if code != http.StatusCreated {
		t.Fatalf("controller submit: status %d, body %s", code, body)
	}
	var ctl struct {
		Sessions []fleet.SessionView `json:"sessions"`
	}
	if err := json.Unmarshal(body, &ctl); err != nil {
		t.Fatalf("decoding controller submit response: %v", err)
	}
	ids := []string{first.ID}
	for _, v := range ctl.Sessions {
		ids = append(ids, v.ID)
	}
	stopPoll := pollGetRoutes(t, srv.URL, ids)
	defer stopPoll() // a failed assertion must not leave it polling

	// Inspect one; unknown ids are 404.
	if code, _ := get("/api/v1/sessions/" + first.ID); code != http.StatusOK {
		t.Fatalf("inspect: status %d", code)
	}
	if code, _ := get("/api/v1/sessions/s-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
	if code, _ := get("/api/v1/sessions/s-999999/stream"); code != http.StatusNotFound {
		t.Fatalf("unknown stream: status %d, want 404", code)
	}

	// Stream the first session as NDJSON until it lands; the final line
	// must be terminal.
	streamResp, err := http.Get(srv.URL + "/api/v1/sessions/" + first.ID + "/stream?interval_ms=20")
	if err != nil {
		t.Fatal(err)
	}
	if got := streamResp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("stream content type %q", got)
	}
	var last fleet.SessionView
	lines := 0
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %d: %v (%s)", lines, err, sc.Text())
		}
		lines++
	}
	streamResp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if lines == 0 || !last.Terminal() {
		t.Fatalf("stream ended after %d lines in state %s, want a terminal final view", lines, last.State)
	}

	// Wait for the whole batch via the rollup.
	var rollup report.FleetRollup
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := get("/api/v1/rollup")
		if code != http.StatusOK {
			t.Fatalf("rollup: status %d", code)
		}
		if err := json.Unmarshal(body, &rollup); err != nil {
			t.Fatalf("decoding rollup: %v", err)
		}
		if rollup.Completed == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never completed: %+v", rollup)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if live := stopPoll(); live == 0 {
		t.Fatal("the route poller never completed a round while a session was running")
	}
	if rollup.Submitted != 12 || rollup.Failed != 0 || rollup.Stopped != 0 {
		t.Fatalf("rollup %+v, want 12 clean completions", rollup)
	}
	if rollup.SimSecondsTotal < 31.9 || rollup.SimSecondsTotal > 32.1 {
		t.Fatalf("sim seconds %.2f, want ~32 (8 sessions × 2s + 4 × 4s)", rollup.SimSecondsTotal)
	}
	if rollup.CyclesTotal == 0 {
		t.Fatal("no controller cycles in the rollup")
	}
	if rollup.EnergyJTotal <= 0 || rollup.MeanGIPS <= 0 {
		t.Fatalf("rollup missing aggregates: %+v", rollup)
	}

	// Prometheus exposition.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	metrics := string(body)
	for _, want := range []string{
		"aspeo_fleet_sessions_submitted_total 12",
		`aspeo_fleet_sessions{state="completed"} 12`,
		`aspeo_fleet_sessions{state="running"} 0`,
		"aspeo_fleet_energy_joules_total",
		"# TYPE aspeo_fleet_cycles_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Stop on a terminal session is accepted (idempotent flag set).
	if code, _ := post("/api/v1/sessions/"+first.ID+"/stop", ""); code != http.StatusAccepted {
		t.Fatalf("stop: status %d, want 202", code)
	}

	// Drain closes intake; the rollup it returns is final.
	code, body = post("/api/v1/drain", "")
	if code != http.StatusOK {
		t.Fatalf("drain: status %d, body %s", code, body)
	}
	if code, body := post("/api/v1/sessions", `{"app":"spotify"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, body %s, want 503", code, body)
	}
	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz after drain: %d %s", code, body)
	}

	// The list endpoint still serves history after drain.
	code, body = get("/api/v1/sessions?state=completed")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var views []fleet.SessionView
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 12 {
		t.Fatalf("listed %d completed sessions, want 12", len(views))
	}
	for i := 1; i < len(views); i++ {
		if views[i-1].ID >= views[i].ID {
			t.Fatalf("list not ordered by submission: %s before %s", views[i-1].ID, views[i].ID)
		}
	}
}

// pollGetRoutes hits every GET route of the control plane in a loop on
// its own goroutine — the sessions list, each session's detail, trace
// and stream, the rollup, the telemetry stream, /metrics, /healthz and
// /readyz — until the returned stop function is called. stop waits for
// the poller to exit and returns how many full rounds began while the
// sessions list showed a running session; calling it again is a no-op.
func pollGetRoutes(t *testing.T, base string, ids []string) (stop func() int) {
	quit := make(chan struct{})
	done := make(chan int)
	// fetch GETs a route and returns its body. The streaming routes never
	// end on their own while sessions run, so for them it reads one line;
	// the telemetry stream writes only when cycles have folded since its
	// last tick, so for it the status line is enough.
	fetch := func(path string) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		switch {
		case strings.HasPrefix(path, "/api/v1/telemetry"):
			return nil, nil
		case strings.Contains(path, "/stream"):
			b, err := bufio.NewReader(resp.Body).ReadBytes('\n')
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		return io.ReadAll(resp.Body)
	}
	go func() {
		live := 0
		defer func() { done <- live }()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			body, err := fetch("/api/v1/sessions")
			if err != nil {
				t.Errorf("poll GET /api/v1/sessions: %v", err)
				return
			}
			var views []fleet.SessionView
			if err := json.Unmarshal(body, &views); err != nil {
				t.Errorf("poll: decoding sessions list: %v", err)
				return
			}
			running := false
			for _, v := range views {
				running = running || v.State == fleet.StateRunning
			}
			id := ids[i%len(ids)]
			for _, path := range []string{
				"/api/v1/sessions/" + id,
				"/api/v1/sessions/" + id + "/trace",
				"/api/v1/sessions/" + id + "/stream?interval_ms=20",
				"/api/v1/rollup",
				"/api/v1/telemetry?interval_ms=20",
				"/metrics",
				"/healthz",
				"/readyz",
			} {
				if _, err := fetch(path); err != nil {
					t.Errorf("poll GET %s: %v", path, err)
					return
				}
			}
			if running {
				live++
			}
		}
	}()
	var once sync.Once
	live := 0
	return func() int {
		once.Do(func() {
			close(quit)
			live = <-done
		})
		return live
	}
}
