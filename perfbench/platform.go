package main

// The platform workloads: closed loops of two worker clients, one
// connection each, driving a supervisor over loopback TCP through the
// public redundancy API until a balanced plan is fully certified.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"redundancy"
	"redundancy/internal/obs"
)

// platformWorkload fixes a platform workload's make-up. Every platform
// workload journals each accepted result on the inline commit path and
// restores fresh supervisors from the journal after every round.
type platformWorkload struct {
	tasks   int
	epsilon float64
	proto   string
	batch   int
	// durable writes the journal to a file and turns the event sink on.
	// The records are not fsynced one by one: on this host's shared disk
	// fsync latency swings twofold over minutes, which no figure of a run
	// could be steady against. The traced run times fsync on its own
	// (journal.fsync_*). Without durable the journal goes to an in-memory
	// buffer and events are off: the record encoding is paid, but no
	// system call.
	durable bool
	// restores is how many fresh supervisors restore from each round's
	// journal; each is timed, so restore_s has more samples than there
	// are rounds. Restores are spread over the run, each round's journal
	// in its own order: thirty restores of one journal at the end of a
	// run spread 28% across runs.
	restores int
}

const (
	workers   = 2
	workKind  = "hashchain"
	workIters = 1
)

var (
	leaseHot      = platformWorkload{tasks: 12_000, epsilon: 0.5, proto: redundancy.ProtoBinary, batch: 16, restores: 1}
	durableLegacy = platformWorkload{tasks: 8_000, epsilon: 0.5, proto: redundancy.ProtoJSON, batch: 1, durable: true, restores: 3}
)

// roundOpts are the knobs the self-test and the event-capture round of
// a traced run turn; a measured round leaves them zero.
type roundOpts struct {
	// cheat corrupts the results of worker 0.
	cheat redundancy.CheatFunc
	// reference replaces the benchmark's own recomputation of task values.
	reference func(taskID int) uint64
	// truncateJournal keeps only this share of the journal before restore.
	truncateJournal float64
	// events turns the event sink on whatever the workload says.
	events bool
}

// round is one full computation: set-up, the closed loop and, once
// restore has run, the restores from its journal.
type round struct {
	seed        uint64
	plan        *redundancy.Plan
	setup       time.Duration
	run         time.Duration
	restores    []time.Duration
	assignments int
	workerErrs  []error
	leaseRTT    []time.Duration
	turnaround  []time.Duration
	live        *supState
	restored    *supState
	journalPath string        // durable only
	journalMem  *bytes.Buffer // without durable

	// Filled in traced rounds only.
	resultRTT  []time.Duration
	sockWrites int64
	wireBytes  float64
	noWork     float64
	journal    *tracedJournal
	events     *eventTap
}

// runRound runs one round. tr, when non-nil, records spans and fills the
// traced-round fields.
func (w platformWorkload) runRound(seed uint64, dir string, tr *tracer, opts roundOpts) (*round, error) {
	r := &round{seed: seed}
	start := time.Now()
	var firstLease atomic.Int64 // ns since start at which the first lease went out
	leaseRTT, turnaround, resultRTT := &durations{}, &durations{}, &durations{}

	p, err := redundancy.NewPlan(w.tasks, w.epsilon)
	if err != nil {
		return nil, err
	}
	r.plan = p
	r.assignments = p.TotalAssignments()
	cfg := redundancy.SupervisorConfig{
		Plan: p, WorkKind: workKind, Iters: workIters, Seed: seed, MaxBatch: w.batch,
		OnTurnaround: turnaround.add,
	}
	var journal io.Writer
	if w.durable {
		r.journalPath = filepath.Join(dir, "journal.jsonl")
		jf, err := os.Create(r.journalPath)
		if err != nil {
			return nil, err
		}
		defer jf.Close()
		journal = jf
	} else {
		r.journalMem = &bytes.Buffer{}
		r.journalMem.Grow(r.assignments * journalRecordBytes)
		journal = r.journalMem
	}
	if tr != nil {
		r.journal = &tracedJournal{w: journal, tr: tr}
		journal = r.journal
	}
	cfg.Journal = journal
	if w.durable || opts.events {
		ef, err := os.Create(filepath.Join(dir, "events.jsonl"))
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		if tr != nil {
			r.events = &eventTap{w: ef, tr: tr}
			cfg.Events = redundancy.NewEventSink(r.events)
		} else {
			cfg.Events = redundancy.NewEventSink(ef)
		}
	}
	var ln *serverListener
	if tr != nil {
		cfg.WrapListener = func(l net.Listener) net.Listener {
			ln = &serverListener{Listener: l, tr: tr}
			return ln
		}
	}
	sup, err := redundancy.NewSupervisor(cfg)
	if err != nil {
		return nil, err
	}
	defer sup.Close()
	addr, err := sup.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	regs := make([]*redundancy.MetricsRegistry, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wc := redundancy.WorkerConfig{
			Addr: addr, Name: fmt.Sprintf("w%d", i), BatchSize: w.batch, Proto: w.proto,
			Seed: seed*workers + uint64(i) + 1,
			OnLeaseRTT: func(d time.Duration) {
				firstLease.CompareAndSwap(0, int64(time.Since(start)-d))
				leaseRTT.add(d)
			},
		}
		if i == 0 {
			wc.Cheat = opts.cheat
		}
		if tr != nil {
			regs[i] = redundancy.NewMetricsRegistry()
			wc.Metrics = regs[i]
			wc.Dial = func(a string) (net.Conn, error) {
				c, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				return &workerConn{Conn: c, tr: tr, resultRTT: resultRTT}, nil
			}
		}
		wg.Add(1)
		go func(i int, wc redundancy.WorkerConfig) {
			defer wg.Done()
			_, errs[i] = redundancy.RunWorker(wc)
		}(i, wc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.workerErrs = append(r.workerErrs, err)
		}
	}
	if len(r.workerErrs) == workers {
		return r, nil // nobody finished the computation
	}
	sup.Wait()
	done := time.Since(start)
	r.setup = time.Duration(firstLease.Load())
	r.run = done - r.setup
	r.leaseRTT = leaseRTT.snapshot()
	r.turnaround = turnaround.snapshot()
	if tr != nil {
		tr.add("round.setup", start, start.Add(r.setup))
		tr.add("round.loop", start.Add(r.setup), start.Add(done))
	}

	if r.live, err = captureState(sup); err != nil {
		return nil, err
	}
	if tr != nil {
		r.resultRTT = resultRTT.snapshot()
		r.sockWrites = ln.writeCount()
		snap := sup.Metrics().Snapshot()
		r.wireBytes = familySum(snap, "redundancy_wire_bytes_total")
		for _, reg := range regs {
			r.noWork += familySum(reg.Snapshot(), "redundancy_worker_nowork_total")
		}
	}
	// Close flushes the journal before the restore reads it; its error
	// only reports the listener the finished run already shut.
	_ = sup.Close()

	return r, nil
}

// restore builds fresh supervisors from the round's journal w.restores
// times, timing each, and captures the state of the first.
func (w platformWorkload) restore(r *round, tr *tracer, opts roundOpts) error {
	if opts.truncateJournal > 0 {
		if err := r.truncateJournal(opts.truncateJournal); err != nil {
			return err
		}
	}
	for i := 0; i < w.restores; i++ {
		back, d, err := w.restoreOnce(r)
		if err != nil {
			return err
		}
		r.restores = append(r.restores, d)
		if tr != nil {
			end := time.Now()
			tr.add("round.restore", end.Add(-d), end)
		}
		if i == 0 {
			r.restored, err = captureState(back)
		}
		_ = back.Close() // never started, so there is no listener to report on
		if err != nil {
			return err
		}
	}
	return nil
}

// journalRecordBytes is a generous size of one journal record, to size
// the in-memory journal once per round.
const journalRecordBytes = 80

// restoreOnce builds a supervisor that replays the round's journal and
// returns it with the time NewSupervisor took.
func (w platformWorkload) restoreOnce(r *round) (*redundancy.Supervisor, time.Duration, error) {
	var jr io.Reader
	if r.journalMem != nil {
		jr = bytes.NewReader(r.journalMem.Bytes())
	} else {
		f, err := os.Open(r.journalPath)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		jr = f
	}
	start := time.Now()
	back, err := redundancy.NewSupervisor(redundancy.SupervisorConfig{
		Plan: r.plan, WorkKind: workKind, Iters: workIters, Seed: r.seed, MaxBatch: w.batch, Restore: jr,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("restore: %w", err)
	}
	return back, time.Since(start), nil
}

// journalBytes is the round's whole journal.
func (r *round) journalBytes() ([]byte, error) {
	if r.journalMem != nil {
		return r.journalMem.Bytes(), nil
	}
	return os.ReadFile(r.journalPath)
}

// truncateJournal keeps only the given share of the round's journal.
func (r *round) truncateJournal(share float64) error {
	if r.journalMem != nil {
		r.journalMem.Truncate(int(float64(r.journalMem.Len()) * share))
		return nil
	}
	fi, err := os.Stat(r.journalPath)
	if err != nil {
		return err
	}
	return os.Truncate(r.journalPath, int64(float64(fi.Size())*share))
}

// familySum adds every labeled child of a counter family.
func familySum(s obs.Snapshot, name string) float64 {
	var sum float64
	for _, f := range s.Families {
		if f.Name == name {
			for _, m := range f.Metrics {
				sum += m.Value
			}
		}
	}
	return sum
}

// run is a platform workload's whole invocation: one warm-up round, then
// rounds, each with its restores, until the measured phase has lasted
// rc.seconds. A traced run alternates traced and untraced rounds, so the
// tracing overhead is measured in the same process, and then measures
// each layer.
func (w platformWorkload) run(rc *runConfig) (*outcome, error) {
	o := &outcome{}
	var (
		setups, rates     []float64
		leaseP50, turnP50 []float64
		samples           [2]int // lease and turnaround samples
		traced            []*round
		tracedRates       []float64
		mem               memDelta
		rounds, perRound  int
		restores          []float64
	)
	check := func(r *round) {
		o.attempted += int64(r.assignments + w.restores)
		if len(r.workerErrs) > 0 {
			o.failed += int64(r.assignments + w.restores)
			for _, err := range r.workerErrs {
				o.violate("round %d: worker: %v", rounds, err)
			}
			return
		}
		for _, v := range append(w.check(r, roundOpts{}), restoreDiff(r.live, r.restored)...) {
			o.violate("round %d: %s", rounds, v)
		}
		r.live, r.restored = nil, nil // checked; traced rounds are kept
	}
	deadline := time.Now().Add(rc.seconds)
	for i := 0; ; i++ {
		seed := rc.seed*1000 + uint64(i)
		// Each round starts on a collected heap, as a fresh computation
		// would, so neither the previous round's garbage nor the point at
		// which the collector happens to run moves this round's figures.
		runtime.GC()
		var before runtime.MemStats
		var tr *tracer
		endRound := func(string) {}
		switch {
		case rc.tr != nil && i%2 == 1 && (len(traced) == 0 || !rc.tr.full()):
			tr = rc.tr
			endRound = tr.beginRound()
		case rc.tr != nil:
			runtime.ReadMemStats(&before)
		}
		r, err := w.runRound(seed, rc.outDir, tr, roundOpts{})
		if err == nil && len(r.workerErrs) == 0 {
			err = w.restore(r, tr, roundOpts{})
		}
		if err != nil {
			return nil, err
		}
		endRound("round")
		check(r)
		rounds++
		perRound = r.assignments
		if len(r.workerErrs) > 0 {
			break
		}
		rate := float64(r.assignments) / r.run.Seconds()
		switch {
		case i == 0: // warm-up: checked, not measured
		case tr != nil:
			tracedRates = append(tracedRates, rate)
			traced = append(traced, r)
		default:
			if rc.tr != nil {
				mem.add(&before, r.assignments)
			}
			setups = append(setups, r.setup.Seconds())
			rates = append(rates, rate)
			for _, d := range r.restores {
				restores = append(restores, d.Seconds())
			}
			// Per-round medians only: raw samples of every round would
			// grow the process and with it peak_rss_mb.
			leaseP50 = append(leaseP50, us(quantile(r.leaseRTT, 0.50)))
			turnP50 = append(turnP50, us(quantile(r.turnaround, 0.50)))
			samples[0] += len(r.leaseRTT)
			samples[1] += len(r.turnaround)
		}
		// A traced run needs at least one traced and one untraced
		// measured round; every run needs three measured rounds.
		if time.Now().After(deadline) && len(rates) >= 3 && (rc.tr == nil || len(traced) >= 1) {
			break
		}
	}
	o.note("rounds", rounds)
	o.note("round_rates", append([]float64(nil), rates...))
	o.note("tasks", w.tasks)
	if len(rates) == 0 {
		return o, nil
	}
	o.note("assignments_per_round", perRound)
	o.set("assignments_per_s", "1/s", median(rates))
	o.set("lease_wait_p50_us", "us", median(leaseP50))
	o.set("turnaround_p50_us", "us", median(turnP50))
	o.set("setup_s", "s", median(setups))
	o.note("lease_wait_samples", samples[0])
	o.note("turnaround_samples", samples[1])
	o.set("restore_s", "s", median(restores))
	if rc.tr != nil {
		o.note("untraced_assignments_per_s", median(rates))
		o.note("traced_assignments_per_s", median(tracedRates))
		o.set("trace.overhead_pct", "%", 100*(median(rates)/median(tracedRates)-1))
		mem.report(o)
		if err := w.layers(o, traced, rc); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// memDelta accumulates runtime.MemStats deltas over untraced rounds.
type memDelta struct {
	mallocs, bytes, assignments uint64
	gcs                         []float64
}

func (m *memDelta) add(before *runtime.MemStats, assignments int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.assignments += uint64(assignments)
	m.gcs = append(m.gcs, float64(after.NumGC-before.NumGC))
}

func (m *memDelta) report(o *outcome) {
	if m.assignments == 0 {
		return
	}
	o.set("runtime.allocs_per_assignment", "count", float64(m.mallocs)/float64(m.assignments))
	o.set("runtime.alloc_bytes_per_assignment", "B", float64(m.bytes)/float64(m.assignments))
	o.set("runtime.gc_cycles", "count", median(m.gcs))
}
