package resultcache

import (
	"bytes"
	"testing"
)

// BenchmarkResultCacheGet measures one Get of a 1.5 KB entry, the size
// of an encoded Results: from memory, and from the persistence
// directory with the memory layer disabled, so every Get reads the file
// and runs the Validate hook.
func BenchmarkResultCacheGet(b *testing.B) {
	val := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 1500)...), `"}`...)
	const key = "run-0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"memory", Options{}},
		{"disk", Options{MaxBytes: -1, Dir: b.TempDir(), Validate: func(_ string, v []byte) ([]byte, error) {
			return Canonical(v)
		}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := New(bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			c.Put(key, val)
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := c.Get(key); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
