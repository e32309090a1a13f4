// Package resultcache content-addresses completed simulation results.
//
// A measurement is a pure function of (config, workload spec, seed,
// warmup, window) — the simulator owns all of its state and every
// pseudo-random choice flows from the seeded RNGs inside it — so the
// serialized result of a job can be cached under a hash of the job
// description and served forever. The cache stores canonical JSON
// bytes (Canonical): a producer's encoder emits them, and an entry
// loaded from disk is normalized once by the Validate hook before it
// enters memory. A served payload can therefore be spliced into a
// response as it is stored, and a cache hit is byte-identical to a
// fresh run.
//
// Three layers compose:
//
//   - Key building (JobKey/Key): a canonical JSON description of the
//     job — config in struct-field order, spec via
//     workload.Spec.CanonicalJSON, methodology, and the CodeVersion
//     stamp — hashed with SHA-256. Reordered keys in user JSON cannot
//     change the address, and a simulator change that moves results
//     bumps CodeVersion so stale entries simply stop matching.
//   - In-memory LRU with a byte budget: entries above the budget evict
//     least-recently-used first. Eviction never loses data persisted
//     on disk.
//   - Optional disk persistence (Options.Dir): every Put also writes
//     dir/<key>, atomically (temp file + rename), and a memory miss
//     falls back to disk, so a restarted service or an offline CLI run
//     reuses earlier work.
//
// GetOrCompute adds singleflight dedup: concurrent callers of the
// same key share one execution of the compute function, so a thundering
// herd of identical requests costs one simulation.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/workload"
)

// CodeVersion stamps every cache key with the simulator's result
// semantics. Bump it whenever a change moves any measured number, so
// entries produced by older code can never be served as current.
// v2: config.Config grew the Policy fields (mitigation seams), which
// changes the key material for every config.
const CodeVersion = "gpgpumem-results-v2"

// Options configures a Cache.
type Options struct {
	// MaxBytes is the in-memory LRU budget (entry payload bytes).
	// 0 means DefaultMaxBytes; negative disables the memory layer.
	MaxBytes int64
	// Dir, when non-empty, persists entries to this directory and
	// serves memory misses from it. The directory is created if needed.
	Dir string
	// Validate, when non-nil, checks entries loaded from Dir before
	// they are promoted into memory and served, and returns the bytes
	// to admit: val itself, or its normalized form (Canonical). A
	// failing entry is deleted and treated as a miss, so a truncated
	// or tampered file is recomputed instead of being trusted (or
	// poisoning the key until restart). In-memory entries are not
	// re-validated: they were either computed by this process or
	// already validated on load.
	Validate func(key string, val []byte) ([]byte, error)
}

// DefaultMaxBytes is the memory budget when Options.MaxBytes is 0 —
// generous for encoded Results (≈1.5 KB each) without mattering next
// to a simulation's working set.
const DefaultMaxBytes = 64 << 20

// Stats counts cache activity since construction.
type Stats struct {
	Hits       int64 // Get/GetOrCompute served from memory
	DiskHits   int64 // served from the persistence directory
	Misses     int64 // not found anywhere
	Computes   int64 // compute functions actually executed
	Shared     int64 // callers that piggybacked on another's compute
	Evictions  int64 // entries dropped by the LRU byte budget
	BadEntries int64 // disk entries rejected by Validate and deleted
	Entries    int   // current in-memory entries
	Bytes      int64 // current in-memory payload bytes
}

// Cache is a content-addressed result store. All methods are safe for
// concurrent use.
type Cache struct {
	maxBytes int64
	dir      string
	validate func(key string, val []byte) ([]byte, error)

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	bytes    int64
	inflight map[string]*call
	stats    Stats
}

// entry is one LRU element.
type entry struct {
	key string
	val []byte
}

// call is one in-flight compute shared by concurrent callers.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// New builds a cache; with Options.Dir set the directory is created.
func New(o Options) (*Cache, error) {
	if o.MaxBytes == 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: create dir: %w", err)
		}
	}
	return &Cache{
		maxBytes: o.MaxBytes,
		dir:      o.Dir,
		validate: o.Validate,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*call{},
	}, nil
}

// Get returns the cached bytes for key, consulting memory first and
// the persistence directory second (promoting disk hits into memory).
// The returned slice must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if val, err := os.ReadFile(c.path(key)); err == nil {
			if c.validate != nil {
				admit, verr := c.validate(key, val)
				if verr != nil {
					// A bad entry must neither be served nor shadow a
					// recompute: delete it and miss.
					os.Remove(c.path(key))
					c.mu.Lock()
					c.stats.BadEntries++
					c.stats.Misses++
					c.mu.Unlock()
					return nil, false
				}
				val = admit
			}
			c.mu.Lock()
			c.stats.DiskHits++
			c.insertLocked(key, val)
			c.mu.Unlock()
			return val, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores val under key in memory and, when persistence is
// configured, on disk. The cache takes ownership of val.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
	if c.dir != "" {
		c.persist(key, val)
	}
}

// GetOrCompute returns the cached bytes for key, or runs compute to
// produce (and store) them. Concurrent calls for the same key share a
// single compute execution; its result is delivered to every waiter.
// hit reports whether the bytes came from the cache (memory or disk)
// rather than this call's — or a concurrent call's — compute. A
// compute that panics stores nothing: the panic propagates to the
// caller that ran it, and the callers waiting on it get an error.
func (c *Cache) GetOrCompute(key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if val, ok := c.Get(key); ok {
		return val, true, nil
	}
	c.mu.Lock()
	// Re-check memory under the same critical section that registers
	// the in-flight call: another goroutine may have completed (Put +
	// inflight delete) in the window after our Get missed, and finding
	// the inflight map empty then must not trigger a second compute.
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		// Another goroutine is already computing this key: wait for it.
		c.stats.Shared++
		c.mu.Unlock()
		<-cl.done
		return cl.val, false, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.stats.Computes++
	c.mu.Unlock()

	// Released on a panicking compute too: its waiters get this error
	// while the panic goes on up this stack.
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.err = fmt.Errorf("resultcache: compute for %s panicked", key)
	cl.val, cl.err = compute()
	if cl.err == nil {
		c.Put(key, cl.val)
	}
	return cl.val, false, cl.err
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// insertLocked adds or refreshes an entry and enforces the byte
// budget. Callers hold c.mu.
func (c *Cache) insertLocked(key string, val []byte) {
	if c.maxBytes < 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		// Same key, same content by construction (the key is a hash of
		// everything the value depends on); just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{key: key, val: val})
	c.items[key] = el
	c.bytes += int64(len(val))
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
		c.stats.Evictions++
	}
}

// path maps a key to its persistence file.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// persist writes val atomically so a crashed writer never leaves a
// truncated entry for a later reader to trust.
func (c *Cache) persist(key string, val []byte) {
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return // persistence is best-effort; memory still has the entry
	}
	name := tmp.Name()
	_, werr := tmp.Write(val)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.path(key)); err != nil {
		os.Remove(name)
	}
}

// Canonical returns val in canonical form: exactly the bytes
// json.Marshal(json.RawMessage(val)) emits, which are compact, with <,
// >, &, U+2028 and U+2029 escaped. It fails when val is not one JSON
// value.
func Canonical(val []byte) ([]byte, error) {
	if len(val) == 0 {
		return nil, fmt.Errorf("resultcache: empty entry")
	}
	canon, err := json.Marshal(json.RawMessage(val))
	if err != nil {
		return nil, fmt.Errorf("resultcache: entry is not JSON: %w", err)
	}
	return canon, nil
}

// Key prefixes name what a key addresses, so a Validate hook (and a
// human listing the cache directory) can tell one job's encoded
// sim.Results from a whole sweep without decoding blind.
const (
	// RunKeyPrefix marks entries holding exp.EncodeResults bytes.
	RunKeyPrefix = "run-"
	// SweepKeyPrefix marks a sweep's content address (the sweep kind
	// follows the prefix). gpusimd answers it as a sweep envelope's key
	// but stores only the sweep's job entries.
	SweepKeyPrefix = "sweep-"
)

// jobKeyMaterial is the canonical description hashed into a job key.
// Field order is the canonical order; spec is the canonical spec JSON.
type jobKeyMaterial struct {
	Version string          `json:"version"`
	Kind    string          `json:"kind"`
	Config  config.Config   `json:"config"`
	Spec    json.RawMessage `json:"spec"`
	Seed    uint64          `json:"seed"`
	Warmup  int64           `json:"warmup_cycles"`
	Window  int64           `json:"window_cycles"`
	Extra   json.RawMessage `json:"extra,omitempty"`
}

// JobKey content-addresses one simulation: the canonical JSON of the
// validated config and spec, the seed (also inside the config, listed
// explicitly so the key material is self-describing), the measurement
// methodology and the CodeVersion stamp, hashed with SHA-256. Two
// descriptions that could produce different bytes never share a key;
// JSON key order never changes one.
func JobKey(cfg config.Config, spec workload.Spec, warmup, window int64) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	canon, err := spec.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h, err := Key(jobKeyMaterial{
		Version: CodeVersion,
		Kind:    "measure",
		Config:  cfg,
		Spec:    canon,
		Seed:    cfg.Seed,
		Warmup:  warmup,
		Window:  window,
	})
	if err != nil {
		return "", err
	}
	return RunKeyPrefix + h, nil
}

// SweepKey content-addresses a multi-job sweep: like JobKey, but over
// an ordered list of canonical specs and a sweep kind ("bottleneck",
// "scenarios", ...). Parallelism is deliberately absent — results are
// bit-identical at any worker count, so -j 1 and -j 4 share entries.
func SweepKey(kind string, cfg config.Config, specs []workload.Spec, warmup, window int64) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	canons := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		c, err := s.CanonicalJSON()
		if err != nil {
			return "", err
		}
		canons[i] = c
	}
	extra, err := json.Marshal(canons)
	if err != nil {
		return "", fmt.Errorf("resultcache: sweep key: %w", err)
	}
	h, err := Key(jobKeyMaterial{
		Version: CodeVersion,
		Kind:    "sweep-" + kind,
		Config:  cfg,
		Seed:    cfg.Seed,
		Warmup:  warmup,
		Window:  window,
		Extra:   extra,
	})
	if err != nil {
		return "", err
	}
	return SweepKeyPrefix + kind + "-" + h, nil
}

// Key hashes canonical key material to its hex SHA-256 address.
func Key(material any) (string, error) {
	data, err := json.Marshal(material)
	if err != nil {
		return "", fmt.Errorf("resultcache: key material: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ValidKey reports whether key has the shape this package generates:
// a run-/sweep- prefix followed by kind and hex-hash segments built
// only from lowercase hex, digits and dashes. Network-facing layers
// (the gpusimd /v1/cache/{key} peer-fetch endpoint) must reject
// anything else before the key reaches a filesystem path — the key
// doubles as a file name under Options.Dir, so this is the one gate
// between untrusted input and filepath.Join.
func ValidKey(key string) bool {
	if len(key) < len(RunKeyPrefix)+hexKeyLen || len(key) > 128 {
		return false
	}
	if !strings.HasPrefix(key, RunKeyPrefix) && !strings.HasPrefix(key, SweepKeyPrefix) {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	// The address proper is always a full hex SHA-256 suffix in its
	// own dash-delimited segment — a 65th trailing hex digit would
	// make a key this package can never have minted.
	if key[len(key)-hexKeyLen-1] != '-' {
		return false
	}
	tail := key[len(key)-hexKeyLen:]
	for i := 0; i < len(tail); i++ {
		c := tail[i]
		if (c < 'a' || c > 'f') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// hexKeyLen is the length of a hex-encoded SHA-256 sum.
const hexKeyLen = 2 * sha256.Size

// Rank orders nodes by rendezvous (highest-random-weight) hashing for
// key: every ranker that knows the same node set computes the same
// order with no coordination, and removing one node only reassigns
// the keys it owned. The fabric coordinator routes a job to
// Rank(key, workers)[0] so repeated sweeps land on the worker whose
// cache already holds the result, and a worker resolves the same
// order to decide which peer to ask first on a local miss.
func Rank(key string, nodes []string) []string {
	ranked := make([]string, len(nodes))
	copy(ranked, nodes)
	scores := make(map[string]uint64, len(nodes))
	for _, n := range ranked {
		sum := sha256.Sum256([]byte(n + "\x00" + key))
		scores[n] = binary.BigEndian.Uint64(sum[:8])
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i]], scores[ranked[j]]
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}
