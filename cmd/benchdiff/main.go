// Command benchdiff compares two `go test -bench` outputs and prints
// a per-benchmark delta table — a dependency-free benchstat
// substitute for the CI bench job. Two classes of metric get two
// policies:
//
//   - ns/op is warn-only by default: regressions beyond -threshold
//     emit GitHub Actions ::warning:: annotations, because
//     single-iteration runs on shared runners are too noisy to gate
//     merges on. The exception is -fail-time: benchmarks whose name
//     matches its regexp hard-fail (exit 1) when ns/op regresses
//     beyond -time-tolerance (default 10%). CI points it at the
//     Fig. 1 suite benchmark — a multi-second run whose duration is
//     dominated by simulated work, so a >10% move is a real
//     engine-level regression, not scheduler noise.
//   - allocs/op and B/op (from -benchmem) are near-deterministic for
//     this simulator's benchmarks, so with -fail-allocs any regression
//     beyond -alloc-tolerance against the baseline is a hard failure
//     (exit 1) — the CI teeth behind the ≤5 allocs/1k-cycles hot-path
//     budget. The tolerance (default 1%) absorbs worker-pool
//     scheduling jitter (tens of allocations in hundreds of
//     thousands); a real per-instruction leak shows up at ~1000×
//     that and cannot hide under it.
//
// Benchmarks present in only one file are always reported (and
// annotated), never silently skipped: a benchmark vanishing from the
// run is exactly the kind of drift the comparison exists to surface —
// and under -fail-allocs (or when it matches -fail-time) a vanished
// benchmark fails the gate, since a crashed or truncated bench run
// must not read as a pass. The checked-in baseline
// (testdata/bench-baseline.txt) is refreshed deliberately, with the
// machine noted in the commit.
//
// Usage:
//
//	benchdiff [-threshold 25] [-fail-allocs] [-fail-time regexp]
//	          [-time-tolerance 10] baseline.txt new.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	threshold := flag.Float64("threshold", 25, "warn when ns/op regresses by more than this percentage")
	failAllocs := flag.Bool("fail-allocs", false, "exit 1 on any allocs/op or B/op regression vs the baseline (beyond -alloc-tolerance)")
	allocTol := flag.Float64("alloc-tolerance", 1, "allocs/op and B/op slack percentage absorbing scheduler jitter in parallel benchmarks")
	failTime := flag.String("fail-time", "", "regexp of benchmark names whose ns/op regression beyond -time-tolerance exits 1 instead of warning")
	timeTol := flag.Float64("time-tolerance", 10, "ns/op slack percentage for benchmarks matched by -fail-time")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] [-fail-allocs] [-alloc-tolerance pct] [-fail-time regexp] [-time-tolerance pct] baseline.txt new.txt")
		os.Exit(2)
	}
	var timeGate *regexp.Regexp
	if *failTime != "" {
		var err error
		if timeGate, err = regexp.Compile(*failTime); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: -fail-time:", err)
			os.Exit(2)
		}
	}
	cur, err := parseBench(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	base, err := parseBench(flag.Arg(0))
	if err != nil {
		// A missing or unreadable baseline is not an error: there is
		// nothing to compare against yet.
		fmt.Printf("benchdiff: no usable baseline (%v); skipping comparison\n", err)
		return
	}

	failed := false
	fmt.Printf("%-52s %14s %14s %9s %16s %13s\n",
		"benchmark", "base ns/op", "new ns/op", "delta", "allocs/op", "B/op")
	for _, name := range cur.order {
		now := cur.rows[name]
		old, ok := base.rows[name]
		if !ok {
			fmt.Printf("%-52s %14s %14.0f %9s %16s %13s\n",
				name, "-", now.nsop, "new", memCell(now.hasMem, now.allocs), memCell(now.hasMem, now.bytes))
			fmt.Printf("::warning title=benchmark only in new run::%s has no baseline entry; refresh %s\n",
				name, flag.Arg(0))
			continue
		}
		delta, deltaStr := pctDelta(old.nsop, now.nsop)
		fmt.Printf("%-52s %14.0f %14.0f %9s %16s %13s\n",
			name, old.nsop, now.nsop, deltaStr,
			memDelta(old, now, func(r bench) float64 { return r.allocs }),
			memDelta(old, now, func(r bench) float64 { return r.bytes }))
		switch {
		case timeGate != nil && timeGate.MatchString(name) && delta > *timeTol:
			// The hard time gate: for the matched benchmarks a slowdown
			// is a merge blocker, not an annotation.
			failed = true
			fmt.Printf("::error title=ns/op regression::%s slowed %s (%.0f -> %.0f ns/op), beyond the %.0f%% -fail-time gate\n",
				name, strings.TrimSpace(deltaStr), old.nsop, now.nsop, *timeTol)
		case delta > *threshold:
			fmt.Printf("::warning title=benchmark regression::%s slowed %s (%.0f -> %.0f ns/op)\n",
				name, strings.TrimSpace(deltaStr), old.nsop, now.nsop)
		}
		if !*failAllocs {
			continue
		}
		switch {
		case !now.hasMem || !old.hasMem:
			// One side has no -benchmem columns: the gate cannot
			// judge it, and saying so beats pretending it passed.
			fmt.Printf("::warning title=allocs not comparable::%s lacks -benchmem metrics in %s\n",
				name, pickMissing(old.hasMem, flag.Arg(0), flag.Arg(1)))
		case regressed(old.allocs, now.allocs, *allocTol):
			failed = true
			fmt.Printf("::error title=allocs/op regression::%s allocates more (%.0f -> %.0f allocs/op)\n",
				name, old.allocs, now.allocs)
		case regressed(old.bytes, now.bytes, *allocTol):
			failed = true
			fmt.Printf("::error title=B/op regression::%s allocates more bytes (%.0f -> %.0f B/op)\n",
				name, old.bytes, now.bytes)
		}
	}
	for _, name := range base.order {
		if _, ok := cur.rows[name]; !ok {
			fmt.Printf("%-52s %14.0f %14s %9s %16s %13s\n", name, base.rows[name].nsop, "-", "gone", "", "")
			if *failAllocs || (timeGate != nil && timeGate.MatchString(name)) {
				// A vanished benchmark would otherwise bypass the gates
				// entirely (a crashed bench run truncates the output
				// file); removing one must be a deliberate baseline
				// refresh, not a silent pass.
				failed = true
				fmt.Printf("::error title=benchmark gone::%s is in the baseline but not in this run; refresh %s if removed deliberately\n",
					name, flag.Arg(0))
			} else {
				fmt.Printf("::warning title=benchmark gone::%s is in the baseline but not in this run\n", name)
			}
		}
	}
	if failed {
		fmt.Println("benchdiff: a gated metric regressed; if intentional, refresh", flag.Arg(0))
		os.Exit(1)
	}
}

// pctDelta returns the old→now percentage change and its rendering.
// A zero baseline has no finite percentage: 0→0 is unchanged and 0→N
// is rendered (and, via the +Inf delta, always flagged) as a
// regression from nothing — the naive 100*(now-old)/old would print
// NaN for the former and +Inf for both.
func pctDelta(old, now float64) (float64, string) {
	if old == 0 {
		if now == 0 {
			return 0, fmt.Sprintf("%+8.1f%%", 0.0)
		}
		return math.Inf(1), "0->new"
	}
	delta := 100 * (now - old) / old
	return delta, fmt.Sprintf("%+8.1f%%", delta)
}

// regressed reports whether a -benchmem metric got worse beyond the
// tolerance. The tolerance is multiplicative, so it cannot excuse a
// zero baseline growing: 0→0 is unchanged, 0→N is always a
// regression.
func regressed(old, now, tolPct float64) bool {
	if old == 0 {
		return now > 0
	}
	return now > old*(1+tolPct/100)
}

// memCell renders an optional -benchmem value.
func memCell(has bool, v float64) string {
	if !has {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// memDelta renders "old -> new" for one -benchmem metric, or "-" when
// either side lacks it.
func memDelta(old, now bench, get func(bench) float64) string {
	if !old.hasMem || !now.hasMem {
		return "-"
	}
	return fmt.Sprintf("%.0f -> %.0f", get(old), get(now))
}

// pickMissing names the file missing the mem metrics (when only the
// baseline has them, the new run is the one missing them).
func pickMissing(baseHas bool, basePath, newPath string) string {
	if baseHas {
		return newPath
	}
	return basePath
}

// bench is one benchmark's parsed metrics.
type bench struct {
	nsop   float64
	allocs float64
	bytes  float64
	hasMem bool // B/op and allocs/op columns were present
}

type benchSet struct {
	rows  map[string]bench
	order []string
}

// parseBench extracts "BenchmarkX ... <n> ns/op [<b> B/op <a> allocs/op]"
// lines. The -cpu suffix (e.g. "-8") is stripped so baselines survive
// runner-shape changes.
func parseBench(path string) (*benchSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &benchSet{rows: map[string]bench{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var row bench
		foundNs := false
		var hasB, hasAllocs bool
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if !foundNs {
					row.nsop, foundNs = v, true
				}
			case "B/op":
				row.bytes, hasB = v, true
			case "allocs/op":
				row.allocs, hasAllocs = v, true
			}
		}
		if !foundNs {
			continue
		}
		row.hasMem = hasB && hasAllocs
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, dup := set.rows[name]; !dup {
			set.order = append(set.order, name)
		}
		set.rows[name] = row
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(set.rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return set, nil
}
