package core

import (
	"math/rand"
	"testing"

	"repro/internal/policy"
)

// runScript is one warp's script for the issue fast-path test: loads
// with short and long dependency distances, each followed by a batched
// compute run, some longer than the distance (the scoreboard blocks
// the warp in the middle of the run) and some shorter (the run issues
// to its end), plus a few stores.
func runScript(r *rand.Rand, n int) []Instr {
	s := make([]Instr, 0, 2*n)
	for i := 0; i < n; i++ {
		addr := 0x10000 + uint64(r.Intn(96))*128
		if r.Intn(8) == 0 {
			s = append(s, storeInstr(addr))
		} else {
			s = append(s, loadInstr(addr, 1+r.Intn(16)))
		}
		s = append(s, Instr{Kind: ALU, Run: 1 + r.Intn(12)})
	}
	return s
}

// TestMidRunIssueMatchesFullPath: an SM issuing mid-run compute
// instructions as counter updates must count exactly what the same SM
// counts when every instruction goes through issueOn and evalWarp
// (sleeping off), and keep the same ready and memory masks, on every
// cycle, under every issue policy. The scripts' runs cross scoreboard
// thresholds, and a small MSHR file puts the throttler under back
// pressure.
func TestMidRunIssueMatchesFullPath(t *testing.T) {
	for _, name := range policy.IssueNames() {
		t.Run(name, func(t *testing.T) {
			cfg := smConfig()
			cfg.Policy.Issue = name
			cfg.L1.MSHREntries = 8
			const warps = 6
			tw := twinOf(t, func() (*SM, *testBackend) {
				r := rand.New(rand.NewSource(7))
				streams := make([]InstrStream, warps)
				for w := range streams {
					streams[w] = &scriptStream{instrs: runScript(r, 400)}
				}
				be := &testBackend{}
				var id uint64
				return NewSM(0, cfg, streams, be, &id), be
			})
			var fast, blockedMidRun int
			for i := 0; i < 600; i++ {
				// Every fifth cycle, count on the SM with the fast path
				// the warps that could take it and those the
				// scoreboard holds in the middle of a run.
				sm := tw.on.sm
				for w := range sm.warps {
					wp := &sm.warps[w]
					if !wp.hasCur || wp.cur.Run <= 1 {
						continue
					}
					switch {
					case sm.ready&(1<<uint(w)) == 0:
						blockedMidRun++
					case wp.idx+1 < wp.minBlock:
						fast++
					}
				}
				tw.answer(tw.c + 60)
				tw.run(5)
			}
			if fast < 500 || blockedMidRun < 200 {
				t.Fatalf("weak coverage: %d fast-path candidates, %d warp-cycles blocked mid-run", fast, blockedMidRun)
			}
			if tw.on.sm.Stats().Instructions < 4000 {
				t.Fatalf("only %d instructions issued", tw.on.sm.Stats().Instructions)
			}
		})
	}
}
