package exp

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/workload"
)

// ScenarioRow compares one multi-phase scenario against its
// duration-weighted fixed-mix control (workload.Spec.Flatten): the
// same mean memory intensity, store fraction and coalescing degree,
// but without the phase structure. The delta isolates what temporal
// phase behaviour alone does to the hierarchy.
type ScenarioRow struct {
	// Scenario and Control name the two specs ("kmeans",
	// "kmeans-fixed").
	Scenario string
	Control  string
	// Phases is the scenario's phase count.
	Phases int
	// ScenarioIPC and ControlIPC are the measured IPCs; Ratio is
	// ScenarioIPC / ControlIPC (<1: the phase structure hurts, >1: it
	// helps — e.g. a hot phase rides caches the blended mix misses).
	ScenarioIPC float64
	ControlIPC  float64
	Ratio       float64
	// Queue congestion under each variant: the §III full-of-usage
	// fractions for the L2 access and DRAM scheduler queues.
	ScenarioL2Full   float64
	ControlL2Full    float64
	ScenarioDRAMFull float64
	ControlDRAMFull  float64
}

// ScenarioReport is the phase-mix vs fixed-mix comparison over a set
// of multi-phase scenarios.
type ScenarioReport struct {
	Rows []ScenarioRow
}

// ScenarioControl is the scenarios sweep's variant list: one variant,
// the scenario's Flatten() fixed-mix control on the same config. With
// VariantGrid it lays out scenario, control, scenario, control, in
// input order.
func ScenarioControl() []Perturbation {
	return []Perturbation{{
		Name:        "fixed-mix",
		Description: "the duration-weighted fixed-mix control (workload.Spec.Flatten)",
		Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
			return cfg, sp.Flatten()
		},
	}}
}

// CheckScenarios rejects a single-phase spec: its flattened control is
// the spec itself, so the sweep would compare it against nothing.
func CheckScenarios(scenarios []workload.Spec) error {
	for _, s := range scenarios {
		if len(s.Phases) == 0 {
			return fmt.Errorf("exp: %s is single-phase; the sweep compares phase structure against its flattened control", s.SpecName)
		}
	}
	return nil
}

// BuildScenarioReport assembles the comparison rows from rows measured
// over ScenarioControl(): each scenario's baseline and its one
// variant, the control. It is the scenario sweep's pure merge half.
func BuildScenarioReport(scenarios []workload.Spec, rows VariantRows) ScenarioReport {
	rep := ScenarioReport{Rows: make([]ScenarioRow, len(scenarios))}
	for i, s := range scenarios {
		sr, cr := rows.Bases[i], rows.Variants[i][0]
		control := s.Flatten()
		row := ScenarioRow{
			Scenario:         s.SpecName,
			Control:          control.SpecName,
			Phases:           len(s.Phases),
			ScenarioIPC:      sr.IPC,
			ControlIPC:       cr.IPC,
			ScenarioL2Full:   sr.L2AccessQueue.FullOfUsage,
			ControlL2Full:    cr.L2AccessQueue.FullOfUsage,
			ScenarioDRAMFull: sr.DRAMSchedQueue.FullOfUsage,
			ControlDRAMFull:  cr.DRAMSchedQueue.FullOfUsage,
		}
		if cr.IPC > 0 {
			row.Ratio = sr.IPC / cr.IPC
		}
		rep.Rows[i] = row
	}
	return rep
}

// String renders the comparison table.
func (r ScenarioReport) String() string {
	var b strings.Builder
	b.WriteString("scenario sweep — multi-phase kernels vs duration-weighted fixed-mix controls\n\n")
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %7s %10s %12s\n",
		"scenario", "phases", "IPC", "fixed", "ratio", "L2-full", "DRAM-full")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %6d %9.3f %9.3f %6.2fx %4.0f%%/%3.0f%% %6.0f%%/%3.0f%%\n",
			row.Scenario, row.Phases, row.ScenarioIPC, row.ControlIPC, row.Ratio,
			row.ScenarioL2Full*100, row.ControlL2Full*100,
			row.ScenarioDRAMFull*100, row.ControlDRAMFull*100)
	}
	b.WriteString("\n(ratio < 1: the phase structure congests the hierarchy more than its\n" +
		" blended average; full% pairs are scenario/control queue full-of-usage)\n")
	return b.String()
}

// CSV renders the scenario sweep as comma-separated values.
func (r ScenarioReport) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,phases,scenario_ipc,control_ipc,ratio,scenario_l2_full,control_l2_full,scenario_dram_full,control_dram_full\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			row.Scenario, row.Phases, row.ScenarioIPC, row.ControlIPC, row.Ratio,
			row.ScenarioL2Full, row.ControlL2Full, row.ScenarioDRAMFull, row.ControlDRAMFull)
	}
	return b.String()
}
