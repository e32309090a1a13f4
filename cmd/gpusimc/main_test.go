package main_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// freePorts reserves n distinct listening ports and releases them, so
// worker processes can be started with -peers flags that name each
// other before any of them is up.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

// startDaemon launches a daemon binary and parses its readiness line
// ("<name>: listening on http://...") for the base URL.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
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
	go io.Copy(io.Discard, r)
	return cmd, url, &stderr
}

// fleet starts n peer-wired gpusimd workers and one gpusimc
// coordinator over them, returning the worker commands and URLs plus
// the coordinator URL.
func fleet(t *testing.T, n int, coordArgs ...string) ([]*exec.Cmd, []string, string) {
	t.Helper()
	workerBin := clitest.Build(t, "repro/cmd/gpusimd")
	coordBin := clitest.Build(t, "repro/cmd/gpusimc")

	ports := freePorts(t, n)
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	cmds := make([]*exec.Cmd, n)
	for i, p := range ports {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cmd, _, _ := startDaemon(t, workerBin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", p),
			"-peers", strings.Join(peers, ","))
		cmds[i] = cmd
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", strings.Join(urls, ",")}, coordArgs...)
	_, coordURL, _ := startDaemon(t, coordBin, args...)
	return cmds, urls, coordURL
}

// postJSON returns (status, body) with optional extra headers.
func postJSON(t *testing.T, url, body string, header http.Header) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestGpusimcFleetSmoke: a three-worker fleet behind gpusimc produces
// a merged sweep byte-identical to one worker's own sweep endpoint,
// and the workers' peer-wired caches serve each other's results
// without recomputing.
func TestGpusimcFleetSmoke(t *testing.T) {
	_, urls, coordURL := fleet(t, 3)

	resp, err := http.Get(coordURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(health), `"workers":3`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, health)
	}

	body := `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500}`
	code, want := postJSON(t, urls[0]+"/v1/sweep/bottleneck", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single worker sweep: %d %s", code, want)
	}
	code, got := postJSON(t, coordURL+"/v1/sweep/bottleneck", body, nil)
	if code != http.StatusOK {
		t.Fatalf("fleet sweep: %d %s", code, got)
	}
	if got != want {
		t.Errorf("fleet-merged sweep differs from single worker:\n got: %s\nwant: %s", got, want)
	}

	// Peer-fetch across real processes: worker 1 computes a job, worker
	// 2 serves the identical bytes without simulating. The fleet sweep
	// above already put simulations on both workers, so the assertion
	// is on the delta across the peer fetch.
	before := simulations(t, urls[2])
	run := `{"workload":"cfd","warmup_cycles":200,"window_cycles":500}`
	resp1, err := http.Post(urls[1]+"/v1/run", "application/json", strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := io.ReadAll(resp1.Body)
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("worker 1 compute: %d %s", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	resp2, err := http.Post(urls[2]+"/v1/run", "application/json", strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	peered, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "peer" {
		t.Fatalf("worker 2: %d X-Cache=%s, want peer", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(fresh, peered) {
		t.Error("peer-fetched bytes differ from the original compute")
	}
	if after := simulations(t, urls[2]); after != before {
		t.Errorf("worker 2 ran %d simulations during a peer hit, want 0", after-before)
	}
}

// simulations reads a worker's lifetime simulation count from
// /v1/stats.
func simulations(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Fleet struct {
			Simulations int64 `json:"simulations"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.Fleet.Simulations
}

// TestGpusimcWorkerKilledMidSweep SIGKILLs one worker while a
// streamed sweep is in flight. The coordinator must requeue the dead
// worker's jobs onto the survivors and the final merged report must
// still be byte-identical to a single node's.
func TestGpusimcWorkerKilledMidSweep(t *testing.T) {
	cmds, urls, coordURL := fleet(t, 3, "-backoff", "10ms")

	body := `{"workloads":["sc","cfd","nn","nw","lbm","ss","kmeans","bfs"],"warmup_cycles":500,"window_cycles":2000}`
	code, want := postJSON(t, urls[0]+"/v1/sweep/bottleneck", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single worker reference sweep: %d %s", code, want)
	}

	req, err := http.NewRequest(http.MethodPost, coordURL+"/v1/sweep/bottleneck", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE sweep: %d", resp.StatusCode)
	}

	// Read events as they stream; on the first completed job, SIGKILL
	// the last worker while most of the grid is still pending.
	var done string
	killed := false
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "job" && !killed {
				killed = true
				if err := cmds[2].Process.Kill(); err != nil {
					t.Fatal(err)
				}
			}
			if event == "error" {
				t.Fatalf("sweep failed mid-stream: %s", data)
			}
			if event == "done" {
				done = data
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("stream ended before any job event")
	}
	if done == "" {
		t.Fatal("no done event received")
	}
	if done+"\n" != want {
		t.Errorf("merged report after worker kill differs from single node:\n got: %s\nwant: %s", done, want)
	}

	// The dead worker is really dead.
	if err := cmds[2].Wait(); err == nil {
		t.Error("killed worker exited cleanly")
	}
	if _, err := http.Get(urls[2] + "/healthz"); err == nil {
		t.Error("killed worker still answering")
	}
}

// TestGpusimcAdviseKilledWorker is the advise acceptance check across
// real processes: a 3-worker fleet runs /v1/sweep/advise — perturbed
// per-job configs and all — while one worker is SIGKILLed mid-sweep.
// The merged body must stay byte-identical to a single worker's, and
// the report payload must equal `gpusim sweep advise -json` for the
// same request, tying the fleet bytes to the single-node CLI.
func TestGpusimcAdviseKilledWorker(t *testing.T) {
	cmds, urls, coordURL := fleet(t, 3, "-backoff", "10ms")

	body := `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500}`
	code, want := postJSON(t, urls[0]+"/v1/sweep/advise", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single worker advise: %d %s", code, want)
	}

	req, err := http.NewRequest(http.MethodPost, coordURL+"/v1/sweep/advise", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE advise sweep: %d", resp.StatusCode)
	}

	var done string
	killed := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "job" && !killed {
				killed = true
				if err := cmds[2].Process.Kill(); err != nil {
					t.Fatal(err)
				}
			}
			if event == "error" {
				t.Fatalf("advise sweep failed mid-stream: %s", data)
			}
			if event == "done" {
				done = data
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !killed || done == "" {
		t.Fatalf("stream incomplete: killed=%v done=%q", killed, done)
	}
	if done+"\n" != want {
		t.Errorf("merged advise after worker kill differs from single node:\n got: %s\nwant: %s", done, want)
	}

	// The report inside the envelope is exactly `gpusim sweep advise
	// -json` for the same workloads and methodology (seed 1 is both
	// the CLI default and the workers' baseline).
	var env struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal([]byte(done), &env); err != nil {
		t.Fatal(err)
	}
	gpusimBin := clitest.Build(t, "repro/cmd/gpusim")
	cliOut, _ := clitest.Run(t, gpusimBin, "sweep", "advise",
		"-workloads", "sc,kmeans", "-warmup", "200", "-window", "500", "-seed", "1", "-json")
	if strings.TrimSuffix(cliOut, "\n") != string(env.Report) {
		t.Errorf("fleet advise report differs from gpusim sweep advise -json:\n got: %s\nwant: %s", env.Report, cliOut)
	}
}

// TestGpusimcOneShot: -sweep mode prints the merged envelope to
// stdout and per-job progress to stderr, then exits 0.
func TestGpusimcOneShot(t *testing.T) {
	_, urls, _ := fleet(t, 2)
	coordBin := clitest.Build(t, "repro/cmd/gpusimc")
	stdout, stderrOut := clitest.Run(t, coordBin,
		"-workers", strings.Join(urls, ","),
		"-sweep", "run", "-workloads", "sc", "-warmup", "200", "-window", "500")
	var env struct {
		Kind   string          `json:"kind"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal([]byte(stdout), &env); err != nil {
		t.Fatalf("one-shot stdout is not an envelope: %v\n%s", err, stdout)
	}
	if env.Kind != "run-batch" || len(env.Report) == 0 {
		t.Errorf("one-shot envelope = %+v", env)
	}
	if !strings.Contains(stderrOut, "[1/1] sc") {
		t.Errorf("no per-job progress on stderr: %s", stderrOut)
	}
}

// TestGpusimcBadFlags: a coordinator without workers refuses to
// start.
func TestGpusimcBadFlags(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusimc")
	out := clitest.RunExpectError(t, bin)
	if !strings.Contains(out, "-workers is required") {
		t.Errorf("missing-workers error not reported: %s", out)
	}
	out = clitest.RunExpectError(t, bin, "-workers", "not-a-url")
	if !strings.Contains(out, "not an absolute URL") {
		t.Errorf("bad worker URL not reported: %s", out)
	}
}
