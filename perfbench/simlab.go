package main

// The simulators' layers, run in every traced run: the tail-latency sweep
// (simple, balanced and Golle–Stubblebine plans × speculation off and on,
// default fleet model) followed by the five-template scenario suite, both
// at 10^5 tasks and single-threaded.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"redundancy/internal/dist"
	"redundancy/internal/experiments"
	"redundancy/internal/plan"
	"redundancy/internal/sim"
)

const simTasks = 100_000

// simSchemes are the sweep's schemes in report order.
var simSchemes = []string{"simple", "balanced", "gs"}

// simSetup is what a user of the lower-level API builds before the first
// trial: the three scheme plans, their tail engines and the scenario
// plans.
type simSetup struct {
	plans   []*plan.Plan
	engines [][2]*sim.TailEngine // by scheme: speculation off, on
	// engineNs is the NewTailEngine time of each cell.
	engineNs []float64
}

func simSweepConfig(seed uint64) experiments.TailSweepConfig {
	cfg := experiments.DefaultTailSweepConfig(simTasks)
	cfg.Workers = 1
	cfg.Seed = seed
	return cfg
}

// schemePlan builds one scheme's deployable plan the way the sweep does.
func schemePlan(name string, n int, eps float64) (*plan.Plan, error) {
	var d *dist.Distribution
	var err error
	switch name {
	case "simple":
		d = dist.Simple(float64(n))
	case "balanced":
		d, err = dist.Balanced(float64(n), eps)
	case "gs":
		d, err = dist.GolleStubblebineForThreshold(float64(n), eps)
	}
	if err != nil {
		return nil, err
	}
	return plan.FromDistribution(d, eps)
}

// tailClasses flattens a plan into its multiplicity histogram: regular
// tasks, the tail partition and the ringers.
func tailClasses(p *plan.Plan) []sim.TailClass {
	count := map[int]int{}
	for _, s := range p.Tasks() {
		count[s.Copies]++
	}
	var out []sim.TailClass
	for c := 1; len(count) > 0; c++ {
		if n, ok := count[c]; ok {
			out = append(out, sim.TailClass{Copies: c, Tasks: n})
			delete(count, c)
		}
	}
	return out
}

func tailConfig(cfg experiments.TailSweepConfig, classes []sim.TailClass, spec bool) sim.TailConfig {
	return sim.TailConfig{
		Classes: classes, Participants: cfg.Participants,
		SpeedBase: cfg.SpeedBase, SpeedJitter: cfg.SpeedJitter, SpeedSpread: cfg.SpeedSpread,
		StragglerP: cfg.StragglerP, StragglerDelay: cfg.StragglerDelay,
		Speculate: spec, SpeculatePct: cfg.SpeculatePct, Seed: cfg.Seed,
	}
}

func buildSimSetup(cfg experiments.TailSweepConfig, scs []sim.Scenario) (*simSetup, error) {
	s := &simSetup{}
	for _, name := range simSchemes {
		p, err := schemePlan(name, cfg.Tasks, cfg.Epsilon)
		if err != nil {
			return nil, err
		}
		s.plans = append(s.plans, p)
		classes := tailClasses(p)
		var pair [2]*sim.TailEngine
		for i, spec := range []bool{false, true} {
			start := time.Now()
			e, err := sim.NewTailEngine(tailConfig(cfg, classes, spec))
			if err != nil {
				return nil, err
			}
			s.engineNs = append(s.engineNs, float64(time.Since(start).Nanoseconds()))
			pair[i] = e
		}
		s.engines = append(s.engines, pair)
	}
	for _, sc := range scs {
		if _, err := plan.Balanced(sc.Config.Tasks, sc.Config.Epsilon); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// simScenarios is the five-template suite at simTasks on each template's
// registered seed. The workload seed is not passed on: the sybil-churn
// and sleeper-agents expectations fail on some seeds at this size (see
// README.md), and a check that fails by seed cannot gate a benchmark.
func simScenarios() []sim.Scenario {
	scs := sim.Scenarios()
	for i := range scs {
		scs[i] = scs[i].WithScale(simTasks, simTasks)
	}
	return scs
}

type simRound struct {
	setup       *simSetup
	report      *experiments.TailSweepReport
	suite       []sim.SuiteResult
	scenarioDur map[string]time.Duration
}

// runSimRound builds the plans and engines, runs the sweep, then the
// suite one template at a time, so each gets its own span and timing.
func runSimRound(seed uint64, tr *tracer) (*simRound, error) {
	cfg := simSweepConfig(seed)
	scs := simScenarios()
	r := &simRound{scenarioDur: map[string]time.Duration{}}
	start := time.Now()
	var err error
	if r.setup, err = buildSimSetup(cfg, scs); err != nil {
		return nil, err
	}
	sweepStart := time.Now()
	if r.report, err = experiments.TailSweep(cfg); err != nil {
		return nil, err
	}
	suiteStart := time.Now()
	for _, sc := range scs {
		t := time.Now()
		r.suite = append(r.suite, sim.RunScenarios([]sim.Scenario{sc}, 1)...)
		r.scenarioDur[sc.Name] = time.Since(t)
		tr.add("sim.scenario."+sc.Name, t, time.Now())
	}
	end := time.Now()
	tr.add("sim.setup", start, sweepStart)
	tr.add("sim.tail_sweep", sweepStart, suiteStart)
	tr.add("sim.scenario_suite", suiteStart, end)
	return r, nil
}

// check verifies one simulator round against properties the method must
// have, computed here from plans the benchmark builds itself.
func (r *simRound) check(cfg experiments.TailSweepConfig, scs []sim.Scenario) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	rows := r.report.Rows
	if len(rows) != 2*len(simSchemes) {
		return []string{fmt.Sprintf("tail sweep: %d rows, want %d", len(rows), 2*len(simSchemes))}
	}
	for i, row := range rows {
		p := r.setup.plans[i/2]
		name := fmt.Sprintf("tail %s spec=%v", row.Scheme, row.Speculate)
		if row.Scheme != simSchemes[i/2] || row.Speculate != (i%2 == 1) {
			fail("%s: row %d out of order", name, i)
		}
		if !(row.P50 <= row.P90 && row.P90 <= row.P99 && row.P99 <= row.P999) {
			fail("%s: quantiles not ordered: %v %v %v %v", name, row.P50, row.P90, row.P99, row.P999)
		}
		copies := p.TotalAssignments()
		rf := float64(copies) / float64(cfg.Tasks)
		if row.Copies != copies || math.Abs(row.RedundancyFactor-rf) > 1e-6 {
			fail("%s: %d copies at RF %v, plan has %d at RF %v", name, row.Copies, row.RedundancyFactor, copies, rf)
		}
		if row.Scheme == "simple" && row.RedundancyFactor != 2 {
			fail("%s: RF %v, want 2", name, row.RedundancyFactor)
		}
		if !row.Speculate && row.Completions != cfg.Trials*copies {
			fail("%s: %d completions, want trials × copies = %d", name, row.Completions, cfg.Trials*copies)
		}
		if row.Speculate && row.Completions < cfg.Trials*copies {
			fail("%s: %d completions, below trials × copies = %d", name, row.Completions, cfg.Trials*copies)
		}
		// Every copy takes at least SpeedBase, and the fleet works on at
		// most Participants copies at once.
		if floor := float64(copies) * cfg.SpeedBase / float64(cfg.Participants); row.MeanMakespan < floor*(1-1e-9) {
			fail("%s: mean makespan %v below the work bound %v", name, row.MeanMakespan, floor)
		}
	}
	bal := r.setup.plans[1]
	hist, regular := map[int]float64{}, map[int]bool{}
	for _, s := range bal.Tasks() {
		hist[s.Copies]++
		if !s.Ringer {
			regular[s.Copies] = true
		}
	}
	for _, v := range checkDetection(hist, regular, cfg.Epsilon) {
		fail("balanced plan: %s", v)
	}
	if len(r.suite) != len(scs) {
		fail("scenario suite: %d results for %d templates", len(r.suite), len(scs))
	}
	for i, s := range r.suite {
		switch {
		case s.Err != nil:
			fail("scenario %s: %v", s.Name, s.Err)
		case len(s.Report.Violations) > 0:
			fail("scenario %s: %v", s.Name, s.Report.Violations)
		default:
			if v := scs[i].Check(s.Report); len(v) > 0 {
				fail("scenario %s: %v", s.Name, v)
			}
		}
	}
	return bad
}

// simRounds is how many rounds of the sweep and the suite a traced run
// makes; the per-template times are their median.
const simRounds = 3

// simLayers runs the simulators in a traced run: rounds of the tail
// sweep and the scenario suite, each checked, then the tail engine timed
// directly, and checks that the sweep report does not depend on the
// worker count.
func simLayers(o *outcome, rc *runConfig) error {
	var traced []*simRound
	for i := 0; i < simRounds; i++ {
		seed := rc.seed*1000 + uint64(i)
		runtime.GC()
		end := rc.tr.beginRound()
		r, err := runSimRound(seed, rc.tr)
		if err != nil {
			return err
		}
		end("sim.round")
		cfg := simSweepConfig(seed)
		o.attempted += int64(6*cfg.Trials + len(r.suite))
		for _, v := range r.check(cfg, simScenarios()) {
			o.violate("sim round %d: %s", i, v)
		}
		traced = append(traced, r)
	}
	defer rc.tr.beginRound()("replays")
	start := time.Now()
	last := traced[len(traced)-1]
	cfg := simSweepConfig(rc.seed*1000 + 1)
	for spec, name := range []string{"sim.tail.spec_off.completions_per_s", "sim.tail.spec_on.completions_per_s"} {
		completions, elapsed := 0, time.Duration(0)
		for _, pair := range last.setup.engines {
			e := pair[spec]
			for t := 0; t < cfg.Trials; t++ {
				start := time.Now()
				tt := e.RunTrial(t)
				elapsed += time.Since(start)
				completions += tt.Completions
			}
		}
		o.set(name, "1/s", float64(completions)/elapsed.Seconds())
	}
	// Steady-state allocations of one trial on an engine already warm.
	e := last.setup.engines[1][1]
	var before, after runtime.MemStats
	const trials = 4
	runtime.ReadMemStats(&before)
	for t := 0; t < trials; t++ {
		e.RunTrial(t)
	}
	runtime.ReadMemStats(&after)
	o.set("sim.tail.allocs_per_trial", "count", float64(after.Mallocs-before.Mallocs)/trials)
	var setupNs []float64
	for _, r := range traced {
		setupNs = append(setupNs, r.setup.engineNs...)
	}
	o.set("sim.tail.engine_setup_ms", "ms", median(setupNs)/1e6)
	rc.tr.add("replay.sim.tail", start, time.Now())
	for _, sc := range simScenarios() {
		var secs []float64
		for _, r := range traced {
			secs = append(secs, r.scenarioDur[sc.Name].Seconds())
		}
		o.set("sim.scenario."+sc.Name+".s", "s", median(secs))
	}

	// The sweep report must not depend on how trials are spread.
	start = time.Now()
	one, err := experiments.TailSweep(cfg)
	if err != nil {
		return err
	}
	cfg.Workers = runtime.NumCPU()
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	many, err := experiments.TailSweep(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(one, many) {
		o.violate("tail sweep report differs between workers=1 and workers=%d", cfg.Workers)
	}
	rc.tr.add("check.sweep_worker_invariance", start, time.Now())
	return nil
}
