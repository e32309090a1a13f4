// Command gpubench is the repository benchmark. It drives one of four
// workloads through the public gpgpumem API (package repro) and the
// daemons' HTTP v1 API, checks the outputs, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	bash bench/run.sh --workload fig1-fixed --seed 1 --seconds 20 --trace 0
//
// A run sets its system up eleven times and reports the median set-up
// time, then runs whole passes until --seconds have elapsed. Pass k
// draws its inputs from --seed and k alone. Times are scaled to a
// reference machine speed (see calib.go). With --trace 1 it runs a
// third of that untraced, but at least 10 s, the same passes again
// under a CPU profile
// with spans, and reports per-layer metrics instead; spans and the
// profile go to --trace-dir. Without --workload it runs all four
// workloads, each in its own child process.
//
// See bench/README.md for the metrics, the workloads and why each was
// chosen.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"

	gm "repro"
)

type workloadDef struct {
	name string
	open func(seed uint64, sz size) bench
}

var workloads = []workloadDef{
	{"fig1-fixed", newFig1},
	{"hierarchy-advise", newAdvise},
	{"serve-mixed", newServe},
	{"fleet-advise", newFleet},
}

// pins are the pass-0 digests at --seed 1 and full size, per result
// code version. A model change must bump gm.ResultCacheCodeVersion;
// under a version with no pins a run reports verify=unpinned.
var pins = map[string]map[string]string{
	"gpgpumem-results-v2": {
		"fig1-fixed":       "7cc0e75f5c4a1f8fabc134bca1c62b7c2d0b24a20017a27e0c6b82181bd24dec",
		"hierarchy-advise": "2a2f2f3c4a6383a4b6af7356dd6bd15acf9eb8bd129986106d91b23aaef2009c",
		"serve-mixed":      "a9e14158823b55eee3d7169eacee54ced36d4a5a1202298d268a641339dbbce1",
		"fleet-advise":     "4950b7b0b38ec97a4bb6fef904c777da53d03f2176c116a168ba2b1074653236",
	},
}

func main() {
	name := flag.String("workload", "", "workload to run: fig1-fixed, hierarchy-advise, serve-mixed or fleet-advise (empty runs all four)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 15, "how long the timed passes run at least")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where the traced run writes spans and its CPU profile")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *name == "" {
		fatal(runAll(*seed, *seconds, *trace, *traceDir))
		return
	}
	var w workloadDef
	for _, d := range workloads {
		if d.name == *name {
			w = d
		}
	}
	if w.open == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	pin := ""
	if *seed == 1 {
		pin = pins[gm.ResultCacheCodeVersion][w.name]
	}
	var res result
	var err error
	if *trace == 1 {
		// A third of the run, but at least 10 s: at the 250 Hz a kernel
		// tick may cap the profile to, that gives 2500 samples per busy
		// core.
		res, err = traceRun(w, *seed, max(*seconds/3, 10), full, pin, *traceDir)
	} else {
		res, err = measureRun(w, *seed, *seconds, full, pin)
	}
	fatal(err)
	fatal(printResult(res))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpubench:", err)
		os.Exit(1)
	}
}

func printResult(res result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-26s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a child process of its own, so that
// each one's peak RSS is its own, and prints their metrics combined
// under "<workload>." prefixes.
func runAll(seed uint64, seconds float64, trace int, traceDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: metrics{}}
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--trace-dir", traceDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var res result
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("%s: result line: %w", w.name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
