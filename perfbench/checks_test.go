package main

// Self-test: each output check passes on a clean run and fails on bad
// input. Run with `go test .` in this directory.

import (
	"strings"
	"testing"

	"redundancy"
)

var (
	smallHot     = platformWorkload{tasks: 2_000, epsilon: 0.5, proto: redundancy.ProtoBinary, batch: 16, restores: 1}
	smallDurable = platformWorkload{tasks: 400, epsilon: 0.5, proto: redundancy.ProtoJSON, batch: 1, durable: true, restores: 2}
)

func runSmall(t *testing.T, w platformWorkload, opts roundOpts) (*round, []string) {
	t.Helper()
	r, err := w.runRound(7, t.TempDir(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.live == nil {
		t.Fatalf("round did not finish: %v", r.workerErrs)
	}
	if err := w.restore(r, nil, opts); err != nil {
		t.Fatal(err)
	}
	return r, append(w.check(r, opts), restoreDiff(r.live, r.restored)...)
}

func mentions(violations []string, what string) bool {
	for _, v := range violations {
		if strings.Contains(v, what) {
			return true
		}
	}
	return false
}

func TestCleanRoundsPass(t *testing.T) {
	for _, w := range []platformWorkload{smallHot, smallDurable} {
		r, bad := runSmall(t, w, roundOpts{})
		if len(r.workerErrs) > 0 || len(bad) > 0 {
			t.Errorf("durable=%v: worker errors %v, violations %v", w.durable, r.workerErrs, bad)
		}
	}
}

func TestCheatingWorkerFailsHonestFleetCheck(t *testing.T) {
	opts := roundOpts{cheat: redundancy.NewWorkerCoalition(1, 7).CheatFunc()}
	_, bad := runSmall(t, smallHot, opts)
	if !mentions(bad, "honest fleet") {
		t.Fatalf("a cheating worker passed the honest-fleet check: %v", bad)
	}
}

func TestWrongReferenceFailsValueCheck(t *testing.T) {
	opts := roundOpts{reference: func(id int) uint64 {
		if id == 11 {
			return reference(id) + 1
		}
		return reference(id)
	}}
	_, bad := runSmall(t, smallHot, opts)
	if !mentions(bad, "recomputed") {
		t.Fatalf("a wrong reference value passed the value check: %v", bad)
	}
}

func TestTruncatedJournalFailsRestoreCheck(t *testing.T) {
	for _, w := range []platformWorkload{smallHot, smallDurable} {
		_, bad := runSmall(t, w, roundOpts{truncateJournal: 0.5})
		if !mentions(bad, "restore:") {
			t.Fatalf("durable=%v: a truncated journal passed the restore check: %v", w.durable, bad)
		}
	}
}

func TestDetectionCheck(t *testing.T) {
	// Simple redundancy: a coalition holding both copies of a task is
	// never detected, so P_2 = 0.
	if bad := checkDetection(map[int]float64{2: 1000}, map[int]bool{2: true}, 0.5); len(bad) != 1 {
		t.Fatalf("simple redundancy passed the detection check: %v", bad)
	}
	p, err := redundancy.NewPlan(100_000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hist, regular := map[int]float64{}, map[int]bool{}
	for _, s := range p.Tasks() {
		hist[s.Copies]++
		if !s.Ringer {
			regular[s.Copies] = true
		}
	}
	if bad := checkDetection(hist, regular, 0.5); len(bad) > 0 {
		t.Fatalf("the balanced plan failed the detection check: %v", bad)
	}
}
