package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gm "repro"
)

// The serve-mixed request mix: most requests go to a hot set that fits
// the server's memory budget, some to a warm set that spills to disk,
// and the rest are keys never asked for before. The set sizes are part
// of size.
const (
	hotShare  = 0.85
	warmShare = 0.10
	// clients is the closed loop's client count: each sends its next
	// request only after the previous one completed.
	clients = 2
)

// request is one POST /v1/run: a built-in workload at a config seed.
type request struct {
	workload string
	seed     uint64
	class    string // hot, warm or fresh
}

func (q request) label() string { return fmt.Sprintf("%s/%d", q.workload, q.seed) }

// mix generates the serve-mixed request stream of one benchmark seed.
type mix struct {
	rng       *rand.Rand
	base      uint64
	hot, warm int // key set sizes
	fresh     uint64
}

func newMix(seed uint64, hot, warm int) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, 0x6770756265)), base: seed * 1_000_000, hot: hot, warm: warm}
}

// setSeeds keeps the three key sets apart: hot keys use config seeds
// base+0..3, warm keys base+1000..1039 and fresh keys base+100000
// upwards.
var setSeeds = map[string]uint64{"hot": 0, "warm": 1000, "fresh": 100000}

// key is the i-th key of a set.
func (m *mix) key(i int, class string) request {
	return request{workload: workloadNames[i%len(workloadNames)], seed: m.base + setSeeds[class] + uint64(i/len(workloadNames)), class: class}
}

// next returns the stream's next n requests.
func (m *mix) next(n int) []request {
	out := make([]request, n)
	for i := range out {
		switch u := m.rng.Float64(); {
		case u < hotShare:
			out[i] = m.key(m.rng.IntN(m.hot), "hot")
		case u < hotShare+warmShare:
			out[i] = m.key(m.rng.IntN(m.warm), "warm")
		default:
			out[i] = m.key(int(m.fresh), "fresh")
			m.fresh++
		}
	}
	return out
}

// service is one HTTP server the benchmark runs on a loopback port.
type service struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serveOn(ln net.Listener, h http.Handler) *service {
	s := &service{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s
}

// close stops the server and drops its connections. It runs only when
// no request is in flight; Shutdown would wait for connections that
// were dialed but never used, which client transports leave behind.
func (s *service) close() {
	s.srv.Close()
	<-s.done
}

// newClient returns a keep-alive client holding up to conns idle
// connections per host, dialing through dial when it is non-nil. It
// never uses a proxy.
func newClient(conns int, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DialContext: dial},
	}
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %w", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// statsDoc is the part of a worker's GET /v1/stats the benchmark reads.
type statsDoc struct {
	Cache gm.ResultCacheStats `json:"cache"`
	Fleet struct {
		PeerHits int64 `json:"peer_hits"`
	} `json:"fleet"`
}

func getStats(c *http.Client, url string) (statsDoc, error) {
	var doc statsDoc
	resp, err := c.Get(url + "/v1/stats")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// serveBench drives one experiment server with a closed loop of
// clients sending the seed's request mix.
type serveBench struct {
	sz     size
	mix    *mix
	client *http.Client
	dir    string
	es     *gm.ExperimentServer
	svc    *service

	mu    sync.Mutex
	first map[string][]byte // request label → first body served for it
	pass0 []string          // labels requested in pass 0
	shed  atomic.Int64
	// warm is the server's counters after prepare, which counters
	// leaves out.
	warm statsDoc
}

func newServe(seed uint64, sz size) bench {
	return &serveBench{sz: sz, mix: newMix(seed, sz.hotKeys, sz.warmKeys), client: newClient(clients, nil), first: map[string][]byte{}}
}

func (b *serveBench) setup() error {
	dir, err := os.MkdirTemp("", "gpubench-cache-")
	if err != nil {
		return err
	}
	b.dir = dir
	b.es, err = gm.NewExperimentServer(gm.ExperimentServerOptions{CacheDir: dir, CacheBytes: 96 << 10, MaxConcurrent: 2})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	ln, err := listen()
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	b.svc = serveOn(ln, b.es.Handler())
	return waitHealthy(b.client, b.svc.url)
}

func (b *serveBench) close() {
	b.svc.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.es.Drain(ctx)
	b.client.CloseIdleConnections()
	os.RemoveAll(b.dir)
}

// prepare asks for every hot and warm key once, so that the timed
// passes see the server's steady state: hot keys in memory, warm keys
// mostly on disk, and only fresh keys simulated. Without it the share
// of misses would fall pass by pass, and a run's numbers would depend
// on how many passes it got through.
func (b *serveBench) prepare(rec *recorder) error {
	var reqs []request
	for i := range b.mix.hot {
		reqs = append(reqs, b.mix.key(i, "hot"))
	}
	for i := range b.mix.warm {
		reqs = append(reqs, b.mix.key(i, "warm"))
	}
	b.send(reqs, rec)
	var err error
	b.warm, err = getStats(b.client, b.svc.url)
	return err
}

func (b *serveBench) pass(k int, rec *recorder) error {
	reqs := b.mix.next(b.sz.requests)
	if k == 0 {
		for _, q := range reqs {
			b.pass0 = append(b.pass0, q.label())
		}
	}
	b.send(reqs, rec)
	return nil
}

// send runs reqs through the closed loop of clients.
func (b *serveBench) send(reqs []request, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
				b.do(reqs[i], rec)
			}
		}()
	}
	wg.Wait()
}

// do sends one request and checks its body: a miss must carry results
// that survive a decode round trip, and every later body for a key
// must equal the first.
func (b *serveBench) do(q request, rec *recorder) {
	body := fmt.Sprintf(`{"workload":%q,"seed":%d,"warmup_cycles":%d,"window_cycles":%d}`,
		q.workload, q.seed, b.sz.runWarmup, b.sz.runWindow)
	start := time.Now()
	sp := rec.tr.open("POST /v1/run", 0, start)
	resp, err := b.client.Post(b.svc.url+"/v1/run", "application/json", strings.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	source := ""
	if err == nil {
		source = resp.Header.Get("X-Cache")
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode == http.StatusServiceUnavailable {
				b.shed.Add(1)
			}
			err = fmt.Errorf("%s: %s: %s", q.label(), resp.Status, bytes.TrimSpace(data))
		}
	}
	rec.tr.end(sp, "key", q.label(), "class", q.class, "x_cache", source)
	rec.done(d, err)
	if err != nil {
		return
	}
	rec.sample(source, d)

	b.mu.Lock()
	first, seen := b.first[q.label()]
	if !seen {
		b.first[q.label()] = data
	}
	b.mu.Unlock()
	if seen && !bytes.Equal(first, data) {
		rec.fail(fmt.Errorf("%s: body differs from the first body served for it", q.label()))
		return
	}
	if source != "miss" {
		return
	}
	var env struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		rec.fail(fmt.Errorf("%s: %w", q.label(), err))
		return
	}
	res, err := gm.DecodeResults(env.Results)
	if err == nil {
		var enc []byte
		if enc, err = roundTrip(res); err == nil && !bytes.Equal(enc, env.Results) {
			err = fmt.Errorf("served results are not in canonical encoding")
		}
	}
	if err != nil {
		rec.fail(fmt.Errorf("%s: %w", q.label(), err))
		return
	}
	j, err := b.job(q)
	if err != nil {
		rec.fail(err)
		return
	}
	rec.simulated(j, &res, env.Results)
}

// job is the simulation a request asks the server for.
func (b *serveBench) job(q request) (gm.Job, error) {
	spec, err := gm.WorkloadSpecByName(q.workload)
	if err != nil {
		return gm.Job{}, err
	}
	cfg := gm.DefaultConfig()
	cfg.Seed = q.seed
	return gm.Job{Config: cfg, Workload: spec, WarmupCycles: b.sz.runWarmup, WindowCycles: b.sz.runWindow}, nil
}

func (b *serveBench) verify(*recorder) {}

func (b *serveBench) counters(m metrics) error {
	doc, err := getStats(b.client, b.svc.url)
	if err != nil {
		return err
	}
	c, w := doc.Cache, b.warm.Cache
	setCacheCounters(m, gm.ResultCacheStats{
		Hits: c.Hits - w.Hits, DiskHits: c.DiskHits - w.DiskHits, Misses: c.Misses - w.Misses,
		Computes: c.Computes - w.Computes, Evictions: c.Evictions - w.Evictions, Shared: c.Shared - w.Shared,
	})
	m.set("serve.shed", float64(b.shed.Load()))
	m.set("serve.peer_hits", float64(doc.Fleet.PeerHits-b.warm.Fleet.PeerHits))
	return nil
}

func setCacheCounters(m metrics, c gm.ResultCacheStats) {
	if lookups := c.Hits + c.DiskHits + c.Misses; lookups > 0 {
		m.set("resultcache.hit_frac", float64(c.Hits+c.DiskHits)/float64(lookups))
	}
	m.set("resultcache.disk_hits", float64(c.DiskHits))
	m.set("resultcache.computes", float64(c.Computes))
	m.set("resultcache.evictions", float64(c.Evictions))
	m.set("resultcache.shared", float64(c.Shared))
}

// digest covers pass 0's keys, each with the hash of its body, sorted.
func (b *serveBench) digest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := sha256.New()
	for _, l := range slices.Compact(slices.Sorted(slices.Values(b.pass0))) {
		body := sha256.Sum256(b.first[l])
		fmt.Fprintf(h, "%s %x\n", l, body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
