package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	gpgpumem "repro"
)

// runSweep is `gpusim sweep <kind> [flags]`: one kind of the sweep
// registry gpusimd and gpusimc serve, resolved and computed locally
// by the same code, printed as the report's table, CSV or JSON. The
// flag set is the same for every kind.
func runSweep(args []string) error {
	kinds := strings.Join(gpgpumem.SweepKindNames(), "|")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: gpusim sweep <%s> [flags]", kinds)
	}
	kind := args[0]
	fs := flag.NewFlagSet("gpusim sweep "+kind, flag.ExitOnError)
	var (
		names  = fs.String("workloads", "", "comma-separated workloads (default: the kind's standard set)")
		jobs   = fs.Int("j", 0, "parallel simulations (0 = all cores)")
		scale  = fs.String("scale", "baseline", "Table I scaling set: baseline|l1|l2|dram|l1l2|l2dram|all")
		seed   = fs.Uint64("seed", 1, "simulation seed")
		warmup = fs.Int64("warmup", 6000, "warm-up cycles before measurement")
		window = fs.Int64("window", 20000, "measurement window in core cycles")
		csv    = fs.Bool("csv", false, "emit CSV instead of the table")
		asJSON = fs.Bool("json", false, "emit the report as compact JSON (the /v1/sweep/{kind} report payload)")
	)
	fs.Parse(args[1:])
	if fs.NArg() > 0 {
		return fmt.Errorf("sweep: unexpected arguments %q", fs.Args())
	}
	req := gpgpumem.JobRequest{Scale: *scale, Seed: seed, Warmup: warmup, Window: window, Parallelism: *jobs}
	if *names != "" {
		for _, n := range strings.Split(*names, ",") {
			req.Workloads = append(req.Workloads, strings.TrimSpace(n))
		}
	}
	rep, err := gpgpumem.RunSweep(kind, req)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	table, ok := rep.(interface {
		String() string
		CSV() string
	})
	if !ok {
		return fmt.Errorf("sweep %s: the report has no table or CSV form; use -json", kind)
	}
	if *csv {
		fmt.Print(table.CSV())
	} else {
		fmt.Print(table.String())
	}
	return nil
}
