package main

import (
	"math"
	"slices"
	"testing"
)

func TestMixIsDeterministic(t *testing.T) {
	a, b := newMix(7, 48, 480), newMix(7, 48, 480)
	first := append(a.next(500), a.next(500)...)
	if !slices.Equal(first, b.next(1000)) {
		t.Fatal("same seed gave different request streams")
	}
	if slices.Equal(newMix(8, 48, 480).next(1000), first) {
		t.Fatal("different seeds gave the same request stream")
	}
}

func TestMixShares(t *testing.T) {
	const n = 25000
	reqs := newMix(1, full.hotKeys, full.warmKeys).next(n)
	count := map[string]int{}
	hot, warm, fresh := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, q := range reqs {
		count[q.class]++
		map[string]map[string]bool{"hot": hot, "warm": warm, "fresh": fresh}[q.class][q.label()] = true
	}
	for class, want := range map[string]float64{"hot": 0.85, "warm": 0.10, "fresh": 0.05} {
		if got := float64(count[class]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.4f, want %.2f ± 0.01", class, got, want)
		}
	}
	if len(hot) != full.hotKeys || len(warm) > full.warmKeys || len(fresh) != count["fresh"] {
		t.Errorf("distinct keys: hot %d, warm %d, fresh %d of %d", len(hot), len(warm), len(fresh), count["fresh"])
	}
	for k := range hot {
		if warm[k] || fresh[k] {
			t.Errorf("key %s is in two sets", k)
		}
	}
}
