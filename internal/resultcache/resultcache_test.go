package resultcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/workload"
)

func testSpec(t *testing.T, in string) workload.Spec {
	t.Helper()
	s, err := workload.ParseSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJobKeyStability: equivalent job descriptions share a key, and
// every input the result depends on changes it.
func TestJobKeyStability(t *testing.T) {
	cfg := config.GTX480Baseline()
	a := testSpec(t, `{"name":"p","warps":4,"dep_dist":2,"compute_per_mem":3,
	                   "access_pattern":"strided","working_set_lines":512,
	                   "lines_per_access":2,"stride_lines":17}`)
	b := testSpec(t, `{"stride_lines":17,"lines_per_access":2,"working_set_lines":512,
	                   "access_pattern":"strided","compute_per_mem":3,"store_frac":0,
	                   "dep_dist":2,"warps":4,"name":"p"}`)
	ka, err := JobKey(cfg, a, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := JobKey(cfg, b, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("reordered spec JSON changed the key: %s vs %s", ka, kb)
	}

	mutants := map[string]func() (string, error){
		"window": func() (string, error) { return JobKey(cfg, a, 1000, 2001) },
		"warmup": func() (string, error) { return JobKey(cfg, a, 1001, 2000) },
		"seed": func() (string, error) {
			c := cfg
			c.Seed = 2
			return JobKey(c, a, 1000, 2000)
		},
		"config": func() (string, error) {
			c := cfg
			c.L2.AccessQueue = 32
			return JobKey(c, a, 1000, 2000)
		},
		"spec": func() (string, error) {
			s := a
			s.StrideLines = 18
			return JobKey(cfg, s, 1000, 2000)
		},
	}
	for name, f := range mutants {
		k, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == ka {
			t.Errorf("%s change did not change the key", name)
		}
	}

	// Invalid inputs must not silently hash.
	bad := cfg
	bad.Core.NumSMs = 0
	if _, err := JobKey(bad, a, 1000, 2000); err == nil {
		t.Error("invalid config produced a key")
	}
	if _, err := JobKey(cfg, workload.Spec{SpecName: "x"}, 1000, 2000); err == nil {
		t.Error("invalid spec produced a key")
	}

	// Sweep keys: order matters, parallelism does not exist as an input.
	k1, err := SweepKey("bottleneck", cfg, []workload.Spec{a, b}, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SweepKey("bottleneck", cfg, []workload.Spec{b, a}, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("equivalent sweep lists hash differently")
	}
	k3, _ := SweepKey("scenarios", cfg, []workload.Spec{a, b}, 1000, 2000)
	if k3 == k1 {
		t.Fatal("sweep kind not part of the key")
	}
}

// TestCacheLRUByteBudget: entries beyond the byte budget evict oldest
// first; hits refresh recency.
func TestCacheLRUByteBudget(t *testing.T) {
	c, err := New(Options{MaxBytes: 250})
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) []byte { return []byte(fmt.Sprintf("%0100d", i)) } // 100 bytes each
	c.Put("k0", val(0))
	c.Put("k1", val(1))
	if _, ok := c.Get("k0"); !ok { // refresh k0 so k1 is oldest
		t.Fatal("k0 missing")
	}
	c.Put("k2", val(2)) // 300 bytes > 250: evict k1
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted")
	}
	for _, k := range []string{"k0", "k2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 200 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

// TestCacheDiskPersistence: entries survive a cache rebuild over the
// same directory, and a memory eviction is refilled from disk.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("alpha", []byte("payload-a"))

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("alpha")
	if !ok || string(got) != "payload-a" {
		t.Fatalf("persisted entry not served: %q ok=%v", got, ok)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("expected a disk hit, got %+v", s)
	}
	// Second read is a memory hit (promoted).
	if _, ok := c2.Get("alpha"); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.Hits != 1 {
		t.Fatalf("expected a memory hit after promotion, got %+v", s)
	}

	// A corrupt leftover temp file never shadows real entries.
	if err := os.WriteFile(filepath.Join(dir, "tmp-zzz"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get("alpha"); !ok {
		t.Fatal("entry lost after junk file appeared")
	}
}

// TestDiskValidation: a disk entry failing the Validate hook is
// deleted and treated as a miss — never served, never allowed to
// shadow a recompute — while in-memory entries skip re-validation.
func TestDiskValidation(t *testing.T) {
	dir := t.TempDir()
	seed, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seed.Put("good", []byte("valid"))
	seed.Put("bad", []byte("garbage"))

	c, err := New(Options{Dir: dir, Validate: func(key string, val []byte) ([]byte, error) {
		if string(val) == "garbage" {
			return nil, errors.New("corrupt")
		}
		return val, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatal("invalid disk entry served")
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.json")); !os.IsNotExist(err) {
		t.Fatalf("invalid entry not deleted: %v", err)
	}
	if v, ok := c.Get("good"); !ok || string(v) != "valid" {
		t.Fatalf("valid entry rejected: %q ok=%v", v, ok)
	}
	if st := c.Stats(); st.BadEntries != 1 || st.DiskHits != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// The rejected key recomputes instead of failing forever.
	val, hit, err := c.GetOrCompute("bad", func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || hit || string(val) != "fresh" {
		t.Fatalf("recompute after rejection broken: %q hit=%v err=%v", val, hit, err)
	}
}

// TestGetOrComputeSingleflight: concurrent identical requests execute
// the compute function exactly once, and everyone gets its bytes.
func TestGetOrComputeSingleflight(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	var computes int
	var mu sync.Mutex
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, _, err := c.GetOrCompute("job", func() ([]byte, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-release // hold every other caller in the singleflight
				return []byte("answer"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = val
		}(i)
	}
	// Give the goroutines time to pile onto the in-flight call, then
	// let the one compute finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", computes)
	}
	for i, r := range results {
		if string(r) != "answer" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	if s := c.Stats(); s.Computes != 1 || s.Shared != waiters-1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	// Later callers hit the cache without computing.
	if _, hit, _ := c.GetOrCompute("job", func() ([]byte, error) {
		t.Fatal("compute ran on a cached key")
		return nil, nil
	}); !hit {
		t.Fatal("expected a cache hit")
	}
}

// TestGetOrComputeError: a failed compute is delivered to all waiters
// and nothing is cached, so the next call retries.
func TestGetOrComputeError(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not delivered: %v", err)
	}
	val, hit, err := c.GetOrCompute("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(val) != "ok" {
		t.Fatalf("retry after error broken: val=%q hit=%v err=%v", val, hit, err)
	}
}

// TestGetOrComputePanic: a compute that panics must not wedge its key.
// The panic reaches the caller that ran it, a concurrent waiter gets
// an error instead of blocking forever, nothing is cached, and the
// next call for the key computes afresh.
func TestGetOrComputePanic(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.GetOrCompute("k", func() ([]byte, error) {
			<-release
			panic("boom")
		})
	}()
	waiter := make(chan error, 1)
	go func() {
		for c.Stats().Computes == 0 {
			time.Sleep(time.Millisecond)
		}
		_, _, err := c.GetOrCompute("k", func() ([]byte, error) {
			t.Error("a waiter ran its own compute while the key was in flight")
			return nil, nil
		})
		waiter <- err
	}()
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case err := <-waiter:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter got %v, want an error saying the compute panicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on the panicked compute")
	}
	if r := <-leader; r != "boom" {
		t.Fatalf("leader recovered %v, want the compute's panic", r)
	}
	val, hit, err := c.GetOrCompute("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(val) != "ok" {
		t.Fatalf("retry after panic broken: val=%q hit=%v err=%v", val, hit, err)
	}
}

// TestCanonical: Canonical emits json.Marshal's form of any JSON value
// (compact, HTML characters and U+2028/U+2029 escaped), keeps canonical
// bytes as they are, and rejects empty or non-JSON entries.
func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		`{"a":1}`:                         `{"a":1}`,
		"{ \"a\" :\n\t[1, 2.50, \"x\"] }": `{"a":[1,2.50,"x"]}`,
		"\"<b>&\u2028\u2029\"":            `"\u003cb\u003e\u0026\u2028\u2029"`,
		` null `:                          `null`,
	} {
		got, err := Canonical([]byte(in))
		if err != nil || string(got) != want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{``, `{"a":`, `{} {}`, `nope`} {
		if got, err := Canonical([]byte(bad)); err == nil {
			t.Errorf("Canonical(%q) = %q, want an error", bad, got)
		}
	}
}
