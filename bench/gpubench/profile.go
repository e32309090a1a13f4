package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of one traced slice in memory until write.
// Spans of one top-level op share a trace id. A nil tracer records
// nothing, which is how untraced runs call it.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	prefix string
	traces int
	spans  []span
}

type span struct {
	Trace  string            `json:"trace_id"`
	ID     int               `json:"span_id"`
	Parent int               `json:"parent_id,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func newTracer(prefix string) *tracer { return &tracer{t0: time.Now(), prefix: prefix} }

// open starts a span at start and returns its id; parent 0 starts a
// new trace.
func (t *tracer) open(name string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds()}
	if parent == 0 {
		t.traces++
		s.Trace = fmt.Sprintf("%s-%d", t.prefix, t.traces)
	} else {
		s.Trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id now, attaching attrs given as key, value pairs.
func (t *tracer) end(id int, attrs ...string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if len(attrs) > 0 {
		s.Attrs = map[string]string{}
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is one CPU profile stack, innermost function first, and how
// many times it was sampled.
type sample struct {
	stack []string
	count int64
}

const repoPrefix = "repro/internal/"

// layerOf names the repo layer fn belongs to, the package directly
// under repro/internal/, or "" for any other function.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// charge is the layer a sample is charged to: that of its innermost
// repo frame, or "other" for stacks of the runtime, the garbage
// collector, net/http and the benchmark itself with no repo frame.
func charge(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// gcRoots are the functions garbage-collector work runs under.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// calibFrame is the calibration kernel as profiles name it; its samples
// are the benchmark's own and are not charged.
var calibFrame = runtime.FuncForPC(reflect.ValueOf(calibChase).Pointer()).Name()

type charged struct {
	total int64 // samples charged, calibration excluded
	calib int64 // calibration samples
	gc    int64
	layer map[string]int64
}

func chargeSamples(samples []sample) charged {
	c := charged{layer: map[string]int64{}}
	for _, s := range samples {
		if slices.Contains(s.stack, calibFrame) {
			c.calib += s.count
			continue
		}
		c.total += s.count
		c.layer[charge(s.stack)] += s.count
		for _, fn := range s.stack {
			if gcRoots[fn] {
				c.gc += s.count
				break
			}
		}
	}
	return c
}

var errProto = errors.New("malformed profile")

// decodeProfile reads a pprof CPU profile, gzipped or not, into its
// sampled stacks. It decodes only the fields it needs: samples,
// locations, functions and the string table.
func decodeProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples [][]byte
	)
	err := eachField(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]sample, 0, len(samples))
	for _, raw := range samples {
		var ids, vals []uint64
		err := eachField(raw, func(num, wire int, v uint64, b []byte) error {
			var err error
			switch num {
			case 1:
				ids, err = appendVarints(ids, wire, v, b)
			case 2:
				vals, err = appendVarints(vals, wire, v, b)
			}
			return err
		})
		if err != nil || len(vals) == 0 {
			return nil, fmt.Errorf("profile: sample: %w", errProto)
		}
		s := sample{count: int64(vals[0])}
		for _, id := range ids {
			for _, fn := range locs[id] {
				name := funcs[fn]
				if name >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function name: %w", errProto)
				}
				s.stack = append(s.stack, strs[name])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField calls fn for every field of one protobuf message: v holds
// a varint or fixed-width value, b a length-delimited payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), int(key&7), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
