package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

const goodSpecJSON = `{
  "name": "mykernel",
  "description": "test kernel",
  "warps": 8,
  "dep_dist": 2,
  "shared": true,
  "phases": [
    {
      "name": "read",
      "instructions": 400,
      "compute_per_mem": 6,
      "access_pattern": "streaming",
      "working_set_lines": 65536,
      "lines_per_access": 1,
      "hit_frac": 0.3
    },
    {
      "name": "update",
      "instructions": 150,
      "compute_per_mem": 2,
      "store_frac": 0.5,
      "access_pattern": "hotset",
      "working_set_lines": 2048,
      "lines_per_access": 4,
      "region": 1
    }
  ]
}`

func TestParseSpecGood(t *testing.T) {
	s, err := ParseSpec([]byte(goodSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.SpecName != "mykernel" || len(s.Phases) != 2 {
		t.Fatalf("parsed wrong spec: %+v", s)
	}
	if s.Phases[1].AccessPattern != Hotset || s.Phases[1].Region != 1 {
		t.Fatalf("phase 2 wrong: %+v", s.Phases[1])
	}
	// The parsed spec must actually stream.
	if in := core.NextOf(s.Stream(0, 0, 1, 128)); in.Kind > 1 {
		t.Fatalf("bad first instruction: %+v", in)
	}
}

func TestParseSpecSinglePhase(t *testing.T) {
	in := `{"name":"flat","warps":4,"dep_dist":1,"compute_per_mem":3,
	        "access_pattern":"strided","working_set_lines":512,
	        "lines_per_access":2,"stride_lines":17}`
	s, err := ParseSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.AccessPattern != Strided || s.StrideLines != 17 {
		t.Fatalf("parsed wrong spec: %+v", s)
	}
}

func TestParseSpecsArray(t *testing.T) {
	in := `[
	  {"name":"a","warps":2,"dep_dist":1,"access_pattern":"streaming",
	   "working_set_lines":64,"lines_per_access":1},
	  {"name":"b","warps":2,"dep_dist":1,"access_pattern":"thrash",
	   "working_set_lines":64,"lines_per_access":1}
	]`
	specs, err := ParseSpecs([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].SpecName != "a" || specs[1].SpecName != "b" {
		t.Fatalf("parsed wrong list: %+v", specs)
	}
	if _, err := ParseSpec([]byte(in)); err == nil {
		t.Fatalf("ParseSpec accepted a two-spec list")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      "nope",
		"unknown field": `{"name":"x","warps":2,"dep_dist":1,"access_pattern":"streaming","working_set_lines":64,"lines_per_access":1,"warp_count":9}`,
		"invalid spec":  `{"name":"x","warps":0,"dep_dist":1,"access_pattern":"streaming","working_set_lines":64,"lines_per_access":1}`,
		"bad pattern":   `{"name":"x","warps":2,"dep_dist":1,"access_pattern":"zigzag","working_set_lines":64,"lines_per_access":1}`,
		"bad phase":     `{"name":"x","warps":2,"dep_dist":1,"phases":[{"instructions":0,"access_pattern":"streaming","working_set_lines":64,"lines_per_access":1}]}`,
		"trailing data": `{"name":"x","warps":2,"dep_dist":1,"access_pattern":"streaming","working_set_lines":64,"lines_per_access":1} extra`,
		"empty list":    `[]`,
		"dup names":     `[{"name":"x","warps":2,"dep_dist":1,"access_pattern":"streaming","working_set_lines":64,"lines_per_access":1},{"name":"x","warps":2,"dep_dist":1,"access_pattern":"streaming","working_set_lines":64,"lines_per_access":1}]`,
	}
	for name, in := range cases {
		if _, err := ParseSpecs([]byte(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseSpecRoundTripsBuiltin(t *testing.T) {
	// A registered scenario serialized with encoding/json must parse
	// back to an equivalent, valid spec — the README example workflow.
	for _, s := range Scenarios() {
		data, err := s.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s.SpecName, err, data)
		}
		if got.SpecName != s.SpecName || len(got.Phases) != len(s.Phases) {
			t.Fatalf("%s: round trip changed the spec", s.SpecName)
		}
	}
}

func TestParseSpecsWhitespaceArray(t *testing.T) {
	in := "\n\t [" + strings.TrimSpace(`{"name":"a","warps":2,"dep_dist":1,"access_pattern":"streaming","working_set_lines":64,"lines_per_access":1}`) + "]\n"
	if _, err := ParseSpecs([]byte(in)); err != nil {
		t.Fatalf("leading whitespace broke array detection: %v", err)
	}
}

// FuzzParseSpecs: every spec ParseSpecs accepts validates, and its
// CanonicalJSON — the form every job key hashes — is a parse fixed
// point: parsing it yields one spec whose canonical form is the same
// bytes. The seeds are every built-in benchmark and scenario, alone
// and as one array.
func FuzzParseSpecs(f *testing.F) {
	var all [][]byte
	for _, n := range Names() {
		sp, err := SpecByName(n)
		if err != nil {
			f.Fatal(err)
		}
		canon, err := sp.CanonicalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(canon)
		all = append(all, canon)
	}
	f.Add(append(append([]byte("["), bytes.Join(all, []byte(","))...), ']'))
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseSpecs(data)
		if err != nil {
			return
		}
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("accepted spec %s does not validate: %v", sp.SpecName, err)
			}
			canon, err := sp.CanonicalJSON()
			if err != nil {
				t.Fatalf("accepted spec %s has no canonical form: %v", sp.SpecName, err)
			}
			back, err := ParseSpec(canon)
			if err != nil {
				t.Fatalf("canonical form of %s rejected: %v\n%s", sp.SpecName, err, canon)
			}
			if again, err := back.CanonicalJSON(); err != nil || !bytes.Equal(again, canon) {
				t.Fatalf("CanonicalJSON is not a parse fixed point (%v):\n%s\n%s", err, canon, again)
			}
		}
	})
}
