package main

// Output checks. They run outside the measured phase, in time linear in
// the plan, and compare the program's outputs with computations made
// here — never with a stored copy of an earlier output. The self-test in
// checks_test.go shows each of them failing on bad input.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"redundancy"
	"redundancy/internal/agg"
	"redundancy/internal/platform"
)

// reference recomputes a task's value apart from the program: the
// hashchain work is a splitmix64 chain of workIters steps over the task's
// payload seed.
func reference(taskID int) uint64 {
	z := platform.TaskSeed(taskID)
	for i := 0; i < workIters; i++ {
		z += 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}

// supState is the order-free state of a supervisor that the checks read:
// the audit export, and the verdicts read once from the snapshot whose
// format PROTOCOL.md fixes (Supervisor.CertifiedValue scans every verdict
// per call, which is quadratic over a whole plan).
type supState struct {
	export    agg.ShardExport
	certified map[int]uint64 // task → certified value
	copies    map[int]int    // task → adjudicated copies
	verdicts  int
	pending   int
	rejected  float64
	// credits by participant ID: a restored supervisor knows IDs, not
	// the names workers registered with.
	credits map[int]int
}

type snapshotLine struct {
	Snapshot struct {
		Verdicts []struct {
			Task     int    `json:"task"`
			Copies   int    `json:"copies"`
			Accepted bool   `json:"accepted"`
			Value    uint64 `json:"value"`
		} `json:"verdicts"`
		Pending []json.RawMessage `json:"pending"`
	} `json:"snapshot"`
}

func captureState(sup *redundancy.Supervisor) (*supState, error) {
	b, err := sup.Snapshot()
	if err != nil {
		return nil, err
	}
	var line snapshotLine
	if err := json.Unmarshal(b, &line); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st := &supState{
		export:    sup.Export(),
		certified: make(map[int]uint64, len(line.Snapshot.Verdicts)),
		copies:    make(map[int]int, len(line.Snapshot.Verdicts)),
		verdicts:  len(line.Snapshot.Verdicts),
		pending:   len(line.Snapshot.Pending),
		rejected:  familySum(sup.Metrics().Snapshot(), "redundancy_results_rejected_total"),
		credits:   map[int]int{},
	}
	for _, c := range sup.Summary().Credits {
		st.credits[c.Participant] = c.Credit
	}
	for _, v := range line.Snapshot.Verdicts {
		st.copies[v.Task] += v.Copies
		if v.Accepted {
			st.certified[v.Task] = v.Value
		}
	}
	return st, nil
}

// check verifies one platform round.
func (w platformWorkload) check(r *round, opts roundOpts) []string {
	ref := opts.reference
	if ref == nil {
		ref = reference
	}
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	st := r.live
	specs := r.plan.Tasks()

	// Every plan task certified with its planned copies, and the
	// adjudicated copies add up to the plan's assignments.
	if st.verdicts != len(specs) || st.pending != 0 {
		fail("%d verdicts and %d pending results for %d plan tasks", st.verdicts, st.pending, len(specs))
	}
	copies, wrong := 0, 0
	hist := map[int]float64{}
	regular := map[int]bool{}
	for _, s := range specs {
		copies += st.copies[s.ID]
		if st.copies[s.ID] != s.Copies {
			fail("task %d: %d copies adjudicated, plan has %d", s.ID, st.copies[s.ID], s.Copies)
			continue
		}
		hist[s.Copies]++
		if !s.Ringer {
			regular[s.Copies] = true
		}
		v, ok := st.certified[s.ID]
		if !ok || v != ref(s.ID) {
			wrong++
		}
	}
	if copies != r.assignments {
		fail("%d copies adjudicated, plan has %d assignments", copies, r.assignments)
	}
	if wrong > 0 {
		fail("%d tasks uncertified or certified with a value other than the recomputed one", wrong)
	}
	// An honest fleet: no mismatches, no suspects, no rejected results.
	if ex := st.export; ex.Mismatches != 0 || ex.Bad != 0 || ex.RingersCaught != 0 || st.rejected != 0 {
		fail("honest fleet: %d mismatches, %d suspect copies, %d ringers caught, %v results rejected",
			ex.Mismatches, ex.Bad, ex.RingersCaught, st.rejected)
	}
	credits := 0
	for _, c := range st.credits {
		credits += c
	}
	if credits != r.assignments {
		fail("credit total %d, assignments %d", credits, r.assignments)
	}
	return append(bad, checkDetection(hist, regular, w.epsilon)...)
}

// restoreDiff compares the order-free state of a restored supervisor with
// the live one: audit totals, credits, and the certified (task, value)
// set. Snapshot bytes are not compared, because journal order may differ
// from adjudication order under concurrency.
func restoreDiff(live, back *supState) []string {
	var bad []string
	a, b := live.export, back.export
	if a.Tasks != b.Tasks || a.Assignments != b.Assignments || a.Bad != b.Bad ||
		a.Accepted != b.Accepted || a.Mismatches != b.Mismatches || a.RingersCaught != b.RingersCaught {
		bad = append(bad, fmt.Sprintf("restore: totals %+v, live %+v", b, a))
	}
	if len(live.credits) != len(back.credits) {
		bad = append(bad, fmt.Sprintf("restore: %d credited participants, live %d", len(back.credits), len(live.credits)))
	}
	for id, c := range live.credits {
		if back.credits[id] != c {
			bad = append(bad, fmt.Sprintf("restore: participant %d has %d credits, live %d", id, back.credits[id], c))
		}
	}
	if len(live.certified) != len(back.certified) {
		bad = append(bad, fmt.Sprintf("restore: %d certified tasks, live %d", len(back.certified), len(live.certified)))
	}
	for task, v := range live.certified {
		if w, ok := back.certified[task]; !ok || w != v {
			bad = append(bad, fmt.Sprintf("restore: task %d certified %d (present %v), live %d", task, w, ok, v))
			break
		}
	}
	return bad
}

// detectionTolerance only absorbs floating-point rounding: the plans'
// integer rounding keeps every P_k at or above ε.
const detectionTolerance = 1e-9

// checkDetection evaluates the paper's P_k = S_k/(x_k+S_k), with
// S_k = Σ_{i>k} C(i,k)·x_i, on a realized multiplicity histogram x and
// requires P_k ≥ ε − tolerance for every multiplicity a regular task has.
func checkDetection(x map[int]float64, regular map[int]bool, eps float64) []string {
	var ks []int
	for k := range regular {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var bad []string
	for _, k := range ks {
		s := 0.0
		for i, xi := range x {
			if i > k {
				s += binomial(i, k) * xi
			}
		}
		if p := s / (x[k] + s); p < eps-detectionTolerance {
			bad = append(bad, fmt.Sprintf("P_%d = %.4f below ε = %g", k, p, eps))
		}
	}
	return bad
}

func binomial(n, k int) float64 {
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return math.Round(r)
}
