package main_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/config"
	"repro/internal/workload"
)

// startDaemon launches gpusimd on a free port and returns its base
// URL plus the running command. The caller owns shutdown.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("daemon produced no listening line: %v\nstderr: %s", err, stderr.String())
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected first line: %q", line)
	}
	url := strings.TrimSpace(line[i+len(marker):])
	go io.Copy(io.Discard, r) // keep draining so the daemon never blocks on stdout
	return cmd, url, &stderr
}

// postJSON returns (status, X-Cache header, body).
func postJSON(t *testing.T, url, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), string(data)
}

// TestGpusimdSmoke is the service's clitest entry: start, health
// check, submit one tiny run and one tiny sweep, hit the cache with
// identical bytes, then shut down cleanly on SIGTERM with exit 0.
func TestGpusimdSmoke(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusimd")
	cacheDir := t.TempDir()
	cmd, url, stderr := startDaemon(t, bin, "-cache-dir", cacheDir)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v\nstderr: %s", err, stderr.String())
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(health), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, health)
	}

	run := `{"workload":"sc","warmup_cycles":200,"window_cycles":500}`
	code, cache, fresh := postJSON(t, url+"/v1/run", run)
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("fresh run: code=%d cache=%s body=%s", code, cache, fresh)
	}
	code, cache, hit := postJSON(t, url+"/v1/run", run)
	if code != http.StatusOK || cache != "hit" || hit != fresh {
		t.Fatalf("cache hit broken: code=%d cache=%s identical=%v", code, cache, hit == fresh)
	}

	sweep := `{"workloads":["kmeans"],"warmup_cycles":200,"window_cycles":400}`
	code, _, rep := postJSON(t, url+"/v1/sweep/bottleneck", sweep)
	if code != http.StatusOK || !strings.Contains(rep, `"Workload":"kmeans"`) {
		t.Fatalf("sweep: code=%d body=%s", code, rep)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s")
	}

	// A fresh daemon over the same cache dir serves the persisted run.
	_, url2, _ := startDaemon(t, bin, "-cache-dir", cacheDir)
	code, cache, reloaded := postJSON(t, url2+"/v1/run", run)
	if code != http.StatusOK || cache != "hit" || reloaded != fresh {
		t.Fatalf("persisted cache not reused: code=%d cache=%s identical=%v", code, cache, reloaded == fresh)
	}
}

// TestGpusimdRejectsWarpLimitAboveMask: a config whose
// core.max_warps_per_sm exceeds the warp scheduler's 64-bit masks used
// to pass validation and the request's warp check, then panic in the
// simulator (a 500 the fleet would retry elsewhere). It is a 400 that
// names the field.
func TestGpusimdRejectsWarpLimitAboveMask(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusimd")
	_, url, _ := startDaemon(t, bin, "-cache-dir", t.TempDir())

	cfg := config.GTX480Baseline()
	cfg.Core.MaxWarpsPerSM = 100
	spec, err := workload.SpecByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	spec.SpecName, spec.Warps = "wide", 80
	body, err := json.Marshal(map[string]any{
		"spec": spec, "config": cfg, "warmup_cycles": 200, "window_cycles": 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, _, resp := postJSON(t, url+"/v1/run", string(body))
	if code != http.StatusBadRequest || !strings.Contains(resp, "core.max_warps_per_sm") {
		t.Fatalf("got %d %s, want 400 naming core.max_warps_per_sm", code, resp)
	}
}

// TestGpusimdRejectsNegativeLatency: a negative l2.hit_latency used to
// be accepted and simulated (as if 0, under a key of its own). An
// inline config carrying one is a 400 naming the field and its bound.
func TestGpusimdRejectsNegativeLatency(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusimd")
	_, url, _ := startDaemon(t, bin, "-cache-dir", t.TempDir())

	cfg := config.GTX480Baseline()
	cfg.L2.HitLatency = -40
	body, err := json.Marshal(map[string]any{
		"workload": "sc", "config": cfg, "warmup_cycles": 200, "window_cycles": 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, _, resp := postJSON(t, url+"/v1/run", string(body))
	var e struct{ Error string }
	if code != http.StatusBadRequest || json.Unmarshal([]byte(resp), &e) != nil ||
		e.Error != "config: l2.hit_latency must be >= 0, got -40" {
		t.Fatalf("got %d %s, want 400 naming l2.hit_latency and its bound", code, resp)
	}
}

// TestGpusimdRejectsNarrowDRAMBus: a dram.bus_width_bits too narrow
// for one byte per beat (2 bits × 2 chips) used to pass validation
// and divide by zero building the DRAM channels, which dropped the
// connection and left the job's cache key in flight, so posting the
// job again hung. Both posts now answer promptly with a 400 that
// names the field.
func TestGpusimdRejectsNarrowDRAMBus(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusimd")
	_, url, _ := startDaemon(t, bin, "-cache-dir", t.TempDir())

	cfg := config.GTX480Baseline()
	cfg.DRAM.BusWidthBits = 2
	body, err := json.Marshal(map[string]any{
		"workload": "sc", "config": cfg, "warmup_cycles": 200, "window_cycles": 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 2; i++ {
		resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post %d: %v", i+1, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "dram.bus_width_bits") {
			t.Fatalf("post %d: got %d %s, want 400 naming dram.bus_width_bits", i+1, resp.StatusCode, data)
		}
	}
}
