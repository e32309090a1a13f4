package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// canonicalPayload turns fuzz bytes into a canonical payload: valid
// JSON is normalized as json.Marshal would emit it, anything else is
// quoted into a JSON string, and empty stays empty.
func canonicalPayload(t *testing.T, b []byte) json.RawMessage {
	if len(b) == 0 {
		return b
	}
	var out []byte
	var err error
	if json.Valid(b) {
		out, err = json.Marshal(json.RawMessage(b))
	} else {
		out, err = json.Marshal(string(b))
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzEnvelopeJSON: the envelope writer's spliced bytes are exactly
// json.Marshal(env) plus the newline, for any description and any
// canonical payload. The seeds cover an encoded Results, a sweep
// report, nil and empty payloads, and workload names holding <>&,
// quotes, U+2028, U+2029, non-ASCII and invalid UTF-8.
func FuzzEnvelopeJSON(f *testing.F) {
	results, err := exp.EncodeResults(sim.Results{Cycles: 600, Instructions: 1234, IPC: 2.0566666666666666})
	if err != nil {
		f.Fatal(err)
	}
	report := []byte(`{ "rows" : [ {"Workload":"<sc>&nn", "ipc": 1.5e3, "note":"a` + "\u2028" + `b"} ], "empty":[] }`)
	f.Add("run-0a1b", "measure", "sc", "", int64(200), int64(600), results, []byte(nil), false)
	f.Add("sweep-bottleneck-0a1b", "sweep-bottleneck", "", "sc,kmeans", int64(0), int64(1), []byte(nil), report, false)
	f.Add("run-0a1b", "measure", "sc", "", int64(6000), int64(20000), results, report, true)
	f.Add("k", "measure", "", "", int64(-1), int64(0), []byte{}, []byte{}, false)
	f.Add("k", "measure", `a<b>&c "quoted" \ back`, "", int64(1), int64(2), results, []byte(nil), false)
	f.Add("k", "run-batch", "", "line\u2028sep\u2029,héllo ☃,\xff", int64(1), int64(2), []byte(nil), []byte(`[{"results":{"x":"<&>"}}]`), false)
	f.Add("k ", "measure", "名前", "", int64(1), int64(2), []byte(`"  plain"`), []byte("not json"), false)
	f.Fuzz(func(t *testing.T, key, kind, name, names string, warmup, window int64, results, report []byte, nilPayloads bool) {
		env := Envelope{
			Key: key, Kind: kind, Workload: name,
			WarmupCycles: warmup, WindowCycles: window,
			Results: canonicalPayload(t, results), Report: canonicalPayload(t, report),
		}
		if names != "" {
			env.Workloads = strings.Split(names, ",")
		}
		if nilPayloads {
			env.Results, env.Report = nil, nil
		}
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("MarshalEnvelope:\n got %s\nwant %s", got, want)
		}
		rec := httptest.NewRecorder()
		WriteEnvelope(rec, env)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("WriteEnvelope: code=%d Content-Type=%q", rec.Code, rec.Header().Get("Content-Type"))
		}
		if rec.Body.String() != string(want)+"\n" {
			t.Fatalf("WriteEnvelope:\n got %q\nwant %q", rec.Body.String(), string(want)+"\n")
		}
	})
}

// TestReadJobBodyMatchesDecode: reading a body whole and then parsing
// it accepts what DecodeJobRequest accepts and fails with its message
// on everything else, oversized bodies included.
func TestReadJobBodyMatchesDecode(t *testing.T) {
	big := strings.Repeat("a", 2<<20)
	for name, body := range map[string]string{
		"valid":            `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`,
		"empty":            ``,
		"unknown field":    `{"workload":"sc","bogus":1}`,
		"trailing request": `{"workload":"sc"}{"workload":"nn"}`,
		"syntax":           `{"workload":`,
		"oversized value":  `{"workload":"` + big + `"}`,
		"oversized tail":   `{"workload":"sc"}` + strings.Repeat(" ", 2<<20),
		"oversized junk":   `x` + big,
	} {
		want, wantErr := DecodeJobRequest(httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		got, err := ReadJobBody(httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		var req JobRequest
		if err == nil {
			req, err = DecodeJobBody(got)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, DecodeJobRequest gives %v", name, err, wantErr)
		}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("%s: request %+v, DecodeJobRequest gives %+v", name, req, want)
		}
	}
}
