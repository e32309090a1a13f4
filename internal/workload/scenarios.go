package workload

// The multi-phase scenarios below model kernels whose memory
// behaviour shifts over time — the case the paper's single-window
// methodology averages away and Ausavarungnirun et al. motivate
// modelling explicitly. Each one alternates phases that stress
// different levels of the hierarchy; the scenarios sweep compares
// every scenario against its Flatten() fixed-mix control.
func init() {
	register(Spec{
		SpecName:    "kmeans",
		Description: "k-means clustering: streaming point-assignment scan alternating with store-heavy hot centroid updates",
		Warps:       32, DepDist: 2, Shared: true,
		Phases: []PhaseSpec{
			{
				PhaseName: "assign", Instructions: 600,
				ComputePerMem: 8, StoreFrac: 0,
				AccessPattern: Streaming, WorkingSetLines: 1 << 18,
				LinesPerAccess: 1, HitFrac: 0.5, Region: 0,
			},
			{
				PhaseName: "update", Instructions: 200,
				ComputePerMem: 4, StoreFrac: 0.6,
				AccessPattern: Hotset, WorkingSetLines: 4096,
				LinesPerAccess: 2, HitFrac: 0, Region: 1,
			},
		},
	})
	register(Spec{
		SpecName:    "bfs",
		Description: "breadth-first search: uncoalesced frontier-neighbor gathers alternating with streaming next-frontier writes",
		Warps:       40, DepDist: 1, Shared: true,
		Phases: []PhaseSpec{
			{
				PhaseName: "expand", Instructions: 500,
				ComputePerMem: 4, StoreFrac: 0.05,
				AccessPattern: Gather, WorkingSetLines: 32768,
				LinesPerAccess: 8, HitFrac: 0.2, Region: 0,
			},
			{
				PhaseName: "write-frontier", Instructions: 250,
				ComputePerMem: 6, StoreFrac: 0.5,
				AccessPattern: Streaming, WorkingSetLines: 1 << 18,
				LinesPerAccess: 1, HitFrac: 0.1, Region: 1,
			},
		},
	})
	register(Spec{
		SpecName:    "histo",
		Description: "histogramming: coalesced input scan alternating with read-modify-write bursts into a small hot bin array",
		Warps:       36, DepDist: 2, Shared: true,
		Phases: []PhaseSpec{
			{
				PhaseName: "scan", Instructions: 300,
				ComputePerMem: 6, StoreFrac: 0,
				AccessPattern: Streaming, WorkingSetLines: 1 << 19,
				LinesPerAccess: 1, HitFrac: 0.05, Region: 0,
			},
			{
				PhaseName: "bins", Instructions: 300,
				ComputePerMem: 3, StoreFrac: 0.5,
				AccessPattern: Hotset, WorkingSetLines: 2048,
				LinesPerAccess: 4, HitFrac: 0, Region: 1,
			},
		},
	})
	register(Spec{
		SpecName:    "dct8x8",
		Description: "separable 2D transform: coalesced row pass alternating with a pathologically uncoalesced column (transpose) pass",
		Warps:       32, DepDist: 3, Shared: true,
		Phases: []PhaseSpec{
			{
				PhaseName: "rows", Instructions: 400,
				ComputePerMem: 10, StoreFrac: 0.3,
				AccessPattern: Streaming, WorkingSetLines: 16384,
				LinesPerAccess: 1, HitFrac: 0.3, Region: 0,
			},
			{
				PhaseName: "cols", Instructions: 400,
				ComputePerMem: 10, StoreFrac: 0.3,
				AccessPattern: Transpose, WorkingSetLines: 16384,
				LinesPerAccess: 8, StrideLines: 128, HitFrac: 0.1, Region: 0,
			},
		},
	})
}

// scenarioNames lists the built-in multi-phase scenarios in reporting
// order.
var scenarioNames = []string{"kmeans", "bfs", "histo", "dct8x8"}

// Scenarios returns the built-in multi-phase scenario specs, in
// reporting order. They are also registered by name, so ByName and
// the CLIs' -workload flags accept them like any benchmark.
func Scenarios() []Spec {
	out := make([]Spec, len(scenarioNames))
	for i, n := range scenarioNames {
		s, ok := registry[n]
		if !ok || len(s.Phases) == 0 {
			panic("workload: scenario " + n + " not registered as multi-phase")
		}
		out[i] = s
	}
	return out
}
