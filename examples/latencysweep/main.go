// Latencysweep: a miniature Fig. 1. Two benchmarks with very
// different memory behaviour — sc (hierarchy-bound) and nn
// (streaming) — run through the latsweep sweep kind, which measures
// each on the real hierarchy and then at fixed L1 miss latencies from
// 0 to 800 cycles, showing how much performance each leaves on the
// table at its baseline latency.
package main

import (
	"fmt"
	"log"
	"strings"

	gpgpumem "repro"
)

func main() {
	warmup, window := int64(4000), int64(12000)
	rep, err := gpgpumem.RunSweep("latsweep", gpgpumem.JobRequest{
		Workloads: []string{"sc", "nn"},
		Warmup:    &warmup,
		Window:    &window,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, curve := range rep.(gpgpumem.LatencyReport).Curves {
		fmt.Printf("%s  (baseline IPC %.2f, avg miss latency %.0f cycles)\n",
			curve.Workload, curve.BaselineIPC, curve.BaselineAvgMissLatency)
		for _, pt := range curve.Points {
			if pt.Latency%100 != 0 {
				continue
			}
			bar := strings.Repeat("#", int(pt.Normalized*12))
			fmt.Printf("  lat %4d  %5.2fx  %s\n", pt.Latency, pt.Normalized, bar)
		}
		fmt.Printf("  crossover (≈ baseline latency equivalent): %.0f cycles\n\n",
			curve.CrossoverLatency)
	}
	fmt.Println("sc's tall plateau says the cache hierarchy, not DRAM, holds it back;")
	fmt.Println("nn's shallow curve says it is bandwidth-bound rather than latency-bound.")
}
