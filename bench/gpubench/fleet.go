package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	gm "repro"
)

// fleetWorkers are the fixed names the coordinator knows its workers
// by. Rendezvous hashing ranks workers by name, so fixed names give
// the same shard split on every run; random ports would not.
var fleetWorkers = []string{"http://w0", "http://w1"}

// fleetBench drives a sweep coordinator over two in-process workers
// that are peers of each other. Each pass advises one config seed: a
// cold sweep, then the identical warm sweep, which every worker
// answers from its cache.
type fleetBench struct {
	sz     size
	seed   uint64
	names  []string
	client *http.Client // benchmark → coordinator and workers

	workers []*gm.ExperimentServer
	svcs    []*service // the workers, then the coordinator
	coord   string

	sum     string
	jobs    int64
	cached  int64
	retries int64
}

func newFleet(seed uint64, sz size) bench {
	names := workloadNames
	if sz.sweepWorkloads > 0 {
		names = names[:sz.sweepWorkloads]
	}
	return &fleetBench{sz: sz, seed: seed, names: names, client: newClient(2, nil)}
}

func (b *fleetBench) setup() error {
	b.workers, b.svcs = nil, nil
	var lns []net.Listener
	for range fleetWorkers {
		ln, err := listen()
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return err
		}
		lns = append(lns, ln)
	}
	dial := map[string]string{}
	for i, ln := range lns {
		peer := "http://" + lns[1-i].Addr().String()
		es, err := gm.NewExperimentServer(gm.ExperimentServerOptions{MaxConcurrent: 1, Peers: []string{peer}})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			b.close()
			return err
		}
		b.workers = append(b.workers, es)
		b.svcs = append(b.svcs, serveOn(ln, es.Handler()))
		dial[strings.TrimPrefix(fleetWorkers[i], "http://")+":80"] = ln.Addr().String()
	}
	// The coordinator dials the fixed worker names through this map and
	// nothing else: a name outside it is an error, never a lookup.
	coordClient := newClient(8, func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := dial[addr]
		if !ok {
			return nil, fmt.Errorf("no worker at %s", addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, real)
	})
	co, err := gm.NewSweepCoordinator(gm.SweepCoordinatorOptions{Workers: fleetWorkers, Client: coordClient})
	if err != nil {
		b.close()
		return err
	}
	ln, err := listen()
	if err != nil {
		b.close()
		return err
	}
	b.svcs = append(b.svcs, serveOn(ln, co.Handler()))
	b.coord = b.svcs[len(b.svcs)-1].url
	for _, s := range b.svcs {
		if err := waitHealthy(b.client, s.url); err != nil {
			return err
		}
	}
	return nil
}

func (b *fleetBench) close() {
	for i := len(b.svcs) - 1; i >= 0; i-- {
		b.svcs[i].close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, es := range b.workers {
		es.Drain(ctx)
	}
	b.client.CloseIdleConnections()
}

func (b *fleetBench) prepare(*recorder) error { return nil }

// pass advises seed+k cold and then warm; the op is the pair.
func (b *fleetBench) pass(k int, rec *recorder) error {
	seed := b.seed + uint64(k)
	body, err := json.Marshal(map[string]any{
		"workloads": b.names, "seed": seed,
		"warmup_cycles": b.sz.sweepWarmup, "window_cycles": b.sz.sweepWindow,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	cold, dc, err := b.sweep(body, "cold", rec)
	var warm []byte
	var dw time.Duration
	if err == nil {
		warm, dw, err = b.sweep(body, "warm", rec)
	}
	if err == nil && !bytes.Equal(cold, warm) {
		err = fmt.Errorf("seed %d: warm envelope differs from the cold one", seed)
	}
	rec.done(time.Since(start), err)
	if err != nil {
		return nil
	}
	rec.sample("cold", dc)
	rec.sample("warm", dw)
	if k == 0 {
		sum := sha256.Sum256(warm)
		b.sum = hex.EncodeToString(sum[:])
	}
	if rec.tr != nil {
		// The cold sweep simulated these jobs on the workers; the
		// traced run reruns a sample of them locally.
		jobs, err := adviseGrid(seed, b.names, hardwarePerturbations, b.sz.sweepWarmup, b.sz.sweepWindow)
		if err != nil {
			return err
		}
		for _, j := range jobs {
			rec.simulated(j, nil, nil)
		}
	}
	return nil
}

// sweep posts one advise sweep to the coordinator, reading its SSE
// progress stream, and returns the merged envelope.
func (b *fleetBench) sweep(body []byte, phase string, rec *recorder) ([]byte, time.Duration, error) {
	start := time.Now()
	sp := rec.tr.open("POST /v1/sweep/advise", 0, start)
	env, err := b.stream(body, sp, start, rec)
	d := time.Since(start)
	rec.tr.end(sp, "phase", phase)
	return env, d, err
}

func (b *fleetBench) stream(body []byte, sp int, start time.Time, rec *recorder) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, b.coord+"/v1/sweep/advise", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("sweep: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "job":
			var ev gm.SweepJobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return nil, fmt.Errorf("job event: %w", err)
			}
			b.jobs++
			b.retries += int64(ev.Attempt - 1)
			if ev.Source != "miss" {
				b.cached++
			}
			js := rec.tr.open("job", sp, start)
			rec.tr.end(js, "workload", ev.Workload, "worker", ev.Worker, "source", ev.Source, "attempt", fmt.Sprint(ev.Attempt))
		case "done":
			return []byte(data), nil
		case "error":
			return nil, fmt.Errorf("sweep failed: %s", data)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("sweep stream ended without a done event")
}

func (b *fleetBench) verify(*recorder) {}

func (b *fleetBench) counters(m metrics) error {
	var total statsDoc
	for _, s := range b.svcs[:len(b.workers)] {
		doc, err := getStats(b.client, s.url)
		if err != nil {
			return err
		}
		c := &total.Cache
		c.Hits += doc.Cache.Hits
		c.DiskHits += doc.Cache.DiskHits
		c.Misses += doc.Cache.Misses
		c.Computes += doc.Cache.Computes
		c.Evictions += doc.Cache.Evictions
		c.Shared += doc.Cache.Shared
		total.Fleet.PeerHits += doc.Fleet.PeerHits
	}
	setCacheCounters(m, total.Cache)
	m.set("serve.peer_hits", float64(total.Fleet.PeerHits))
	m.set("fabric.retries", float64(b.retries))
	if b.jobs > 0 {
		m.set("fabric.hit_frac", float64(b.cached)/float64(b.jobs))
	}
	return nil
}

func (b *fleetBench) digest() string { return b.sum }
