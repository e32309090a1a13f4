package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
)

// side is one SM of a twin with its backend and the responses it has
// been promised but not yet accepted.
type side struct {
	sm       *SM
	be       *testBackend
	pending  []*mem.Packet
	answered int // be.sent[:answered] have responses scheduled
}

// answer schedules a response, ready at cycle at, for every load the
// backend has accepted and not yet answered.
func (sd *side) answer(at int64) {
	for ; sd.answered < len(sd.be.sent); sd.answered++ {
		if req := sd.be.sent[sd.answered]; req.Kind == mem.Load {
			sd.pending = append(sd.pending, &mem.Packet{Req: req, IsResponse: true, ReadyAt: at})
		}
	}
}

// tick delivers the pending responses the SM accepts, then ticks it.
func (sd *side) tick(c int64) {
	for len(sd.pending) > 0 && sd.sm.DeliverResponse(sd.pending[0]) {
		sd.pending = sd.pending[1:]
	}
	sd.sm.Tick(c)
}

// twin drives an SM with sleeping on and a twin with it off through
// the same instruction script and the same backend behaviour, and
// checks after every cycle that their counters agree.
type twin struct {
	t       *testing.T
	on, off side
	c       int64
	// headSlept records the L1-head counters the sleeping SM slept
	// on (nil: no blocked head); drainSlept that it slept with a
	// drain blocked on a full LDST queue.
	headSlept  map[*int64]bool
	drainSlept bool
}

func newTwin(t *testing.T, cfg config.Config, script []Instr) *twin {
	t.Helper()
	return twinOf(t, func() (*SM, *testBackend) {
		sm, be, _ := newTestSM(t, cfg, 1, script)
		return sm, be
	})
}

// twinOf builds a twin from two SMs that mk builds alike, turning
// sleeping off in the second.
func twinOf(t *testing.T, mk func() (*SM, *testBackend)) *twin {
	mkSide := func() side {
		sm, be := mk()
		return side{sm: sm, be: be}
	}
	tw := &twin{t: t, on: mkSide(), off: mkSide(), headSlept: map[*int64]bool{}}
	tw.off.sm.SetSleep(false)
	return tw
}

func (tw *twin) refuse(r bool) { tw.on.be.refuse, tw.off.be.refuse = r, r }

func (tw *twin) answer(at int64) { tw.on.answer(at); tw.off.answer(at) }

// run ticks both SMs n cycles, failing on the first cycle whose
// Stats, StallStack or warp ready and memory masks differ.
func (tw *twin) run(n int64) {
	tw.t.Helper()
	for end := tw.c + n; tw.c < end; tw.c++ {
		tw.on.tick(tw.c)
		tw.off.tick(tw.c)
		if s := tw.on.sm; s.asleep {
			tw.headSlept[s.headStall] = true
			tw.drainSlept = tw.drainSlept || s.drainOn
		}
		if a, b := tw.on.sm.Stats(), tw.off.sm.Stats(); !reflect.DeepEqual(a, b) {
			tw.t.Fatalf("cycle %d: Stats diverged:\nsleeping %+v\nfull     %+v", tw.c, a, b)
		}
		if a, b := tw.on.sm.StallStack(), tw.off.sm.StallStack(); !reflect.DeepEqual(a, b) {
			tw.t.Fatalf("cycle %d: StallStack diverged:\nsleeping %+v\nfull     %+v", tw.c, a, b)
		}
		if on, off := tw.on.sm, tw.off.sm; on.ready != off.ready || on.memCur != off.memCur {
			tw.t.Fatalf("cycle %d: masks diverged: ready %#x/%#x, memory %#x/%#x",
				tw.c, on.ready, off.ready, on.memCur, off.memCur)
		}
	}
}

// loads returns n single-line loads with dependency distance dep, at
// line addresses base, base+step, ...
func loads(n int, base, step uint64, dep int) []Instr {
	s := make([]Instr, n)
	for i := range s {
		s[i] = loadInstr(base+uint64(i)*step, dep)
	}
	return s
}

// TestSleepMatchesFullTicks: an SM that sleeps through the cycles in
// which a full tick would change nothing but counters must count
// exactly what the same SM ticking every stage every cycle counts, on
// every cycle, in each state it can sleep in.
func TestSleepMatchesFullTicks(t *testing.T) {
	type tc struct {
		name   string
		cfg    func(*config.Config)
		script []Instr
		drive  func(tw *twin)
		head   func(s *SM) *int64 // the L1-head counter it must sleep on
		drain  bool               // must sleep with a blocked drain too
	}
	cases := []tc{
		{
			name:   "full MSHR",
			cfg:    func(c *config.Config) { c.L1.MSHREntries = 4 },
			script: loads(8, 0x10000, 128, 8),
			drive: func(tw *twin) {
				tw.run(100)
				tw.answer(tw.c + 7) // ReadyAt in the future: wake by time too
				tw.run(100)
			},
			head: func(s *SM) *int64 { return &s.stats.StallMSHR },
		},
		{
			name:   "full miss queue behind a refusing backend",
			cfg:    func(c *config.Config) { c.L1.MissQueue = 4 },
			script: loads(8, 0x10000, 128, 8),
			drive: func(tw *twin) {
				tw.refuse(true)
				tw.run(100)
				tw.refuse(false)
				tw.run(50)
				tw.answer(tw.c)
				tw.run(100)
			},
			head: func(s *SM) *int64 { return &s.stats.StallMissQ },
		},
		{
			// Every load maps to one 4-way set: the fifth finds every
			// way reserved.
			name:   "reservation failure",
			script: loads(6, 0x10000, 32*128, 8),
			drive: func(tw *twin) {
				tw.run(100)
				tw.answer(tw.c)
				tw.run(100)
			},
			head: func(s *SM) *int64 { return &s.stats.StallResFail },
		},
		{
			// The stores fill the miss queue and the 2-entry LDST
			// queue behind it; the next store's drain blocks too, and
			// the trailing load's consumer stops issue.
			name: "full store queue",
			cfg:  func(c *config.Config) { c.Core.MemPipelineWidth = 2 },
			script: func() []Instr {
				var s []Instr
				for i := 0; i < 12; i++ {
					s = append(s, storeInstr(0x80000+uint64(i)*128))
				}
				return append(s, loadInstr(0x10000, 1), Instr{Kind: ALU})
			}(),
			drive: func(tw *twin) {
				tw.refuse(true)
				tw.run(100)
				tw.refuse(false)
				tw.run(50)
				tw.answer(tw.c)
				tw.run(100)
			},
			head:  func(s *SM) *int64 { return &s.stats.StallStoreQ },
			drain: true,
		},
		{
			// The second load hits the line the first one filled; its
			// consumer waits out the hit latency.
			name: "hit-wait",
			cfg:  func(c *config.Config) { c.L1.HitLatency = 20 },
			script: []Instr{
				loadInstr(0x10000, 1), {Kind: ALU},
				loadInstr(0x10000, 1), {Kind: ALU},
				loadInstr(0x10000, 1), {Kind: ALU},
			},
			drive: func(tw *twin) {
				tw.run(30)
				tw.answer(tw.c)
				tw.run(150)
			},
			head: func(s *SM) *int64 { return nil },
		},
		{
			name:   "idle",
			script: []Instr{loadInstr(0x10000, 1), {Kind: ALU}},
			drive: func(tw *twin) {
				tw.run(100)
				tw.answer(tw.c + 3)
				tw.run(50)
			},
			head: func(s *SM) *int64 { return nil },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := smConfig()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			tw := newTwin(t, cfg, c.script)
			c.drive(tw)
			full, cycles := tw.on.sm.HostTicks()
			if full == cycles {
				t.Fatalf("the SM never slept (%d full ticks in %d cycles)", full, cycles)
			}
			if want := c.head(tw.on.sm); !tw.headSlept[want] {
				t.Fatalf("never slept on the expected L1-head counter; slept on %v", tw.headSlept)
			}
			if c.drain && !tw.drainSlept {
				t.Fatalf("never slept with a blocked drain")
			}
			if full2, _ := tw.off.sm.HostTicks(); full2 != cycles {
				t.Fatalf("SM with sleeping off ran %d full ticks in %d cycles", full2, cycles)
			}
		})
	}
}

// TestSleepWakesOnDeliverResponse: an idle SM reports no wake cycle
// of its own, and a delivered response makes its next tick full.
func TestSleepWakesOnDeliverResponse(t *testing.T) {
	sm, be, _ := newTestSM(t, smConfig(), 1, []Instr{loadInstr(0x10000, 1), {Kind: ALU}})
	c := run(sm, 0, 50)
	if got := sm.SleepUntil(); got != math.MaxInt64 {
		t.Fatalf("idle SleepUntil = %d, want math.MaxInt64", got)
	}
	full, _ := sm.HostTicks()
	sm.Tick(c)
	c++
	if f, _ := sm.HostTicks(); f != full {
		t.Fatalf("idle SM ran a full tick")
	}
	sm.DeliverResponse(&mem.Packet{Req: be.sent[0], IsResponse: true, ReadyAt: c})
	if got := sm.SleepUntil(); got > c {
		t.Fatalf("SleepUntil after delivery = %d, want <= %d", got, c)
	}
	sm.Tick(c)
	if f, _ := sm.HostTicks(); f != full+1 {
		t.Fatalf("delivery did not wake the SM")
	}
	if sm.Stats().FillsProcessed != 1 {
		t.Fatalf("fill not processed on the waking tick")
	}
}

// TestSleepWakesOnDueHit: a hit-waiting SM sleeps until exactly the
// cycle its oldest in-flight hit completes.
func TestSleepWakesOnDueHit(t *testing.T) {
	cfg := smConfig()
	cfg.L1.HitLatency = 20
	script := []Instr{loadInstr(0x10000, 1), {Kind: ALU}, loadInstr(0x10000, 1), {Kind: ALU}}
	sm, be, _ := newTestSM(t, cfg, 1, script)
	c := run(sm, 0, 20)
	sm.DeliverResponse(&mem.Packet{Req: be.sent[0], IsResponse: true, ReadyAt: c})
	for sm.hitPipe.Len() == 0 || !sm.asleep {
		if c > 100 {
			t.Fatalf("the SM never hit-waited")
		}
		sm.Tick(c)
		c++
	}
	wake := sm.SleepUntil()
	if h, _ := sm.hitPipe.Peek(); wake != h.doneAt || wake <= c {
		t.Fatalf("SleepUntil = %d, want the hit's completion %d > cycle %d", wake, h.doneAt, c)
	}
	full, _ := sm.HostTicks()
	run(sm, c, wake)
	if f, _ := sm.HostTicks(); f != full {
		t.Fatalf("%d full ticks before the hit was due", f-full)
	}
	sm.Tick(wake)
	if f, _ := sm.HostTicks(); f != full+1 {
		t.Fatalf("the due hit did not wake the SM")
	}
}

// TestSleepWakesWhenBackendAccepts: an SM asleep behind a refusing
// backend asks to be ticked every cycle but ticks in O(1), without
// offering the backend anything, until the backend can accept.
func TestSleepWakesWhenBackendAccepts(t *testing.T) {
	sm, be, _ := newTestSM(t, smConfig(), 1, loads(20, 0x10000, 128, 8))
	be.refuse = true
	c := run(sm, 0, 100)
	if !sm.asleep || sm.SleepUntil() > c {
		t.Fatalf("asleep=%v SleepUntil=%d: want asleep and ticked every cycle", sm.asleep, sm.SleepUntil())
	}
	full, _ := sm.HostTicks()
	c = run(sm, c, c+10)
	if f, _ := sm.HostTicks(); f != full {
		t.Fatalf("%d full ticks while the backend refused", f-full)
	}
	if be.rejects != 0 {
		t.Fatalf("the SM offered a refusing backend %d misses", be.rejects)
	}
	be.refuse = false
	sm.Tick(c)
	if f, _ := sm.HostTicks(); f != full+1 || len(be.sent) != 1 {
		t.Fatalf("backend accepting did not wake the SM: %d full ticks, %d sent", f-full, len(be.sent))
	}
}
