package main

// Per-layer replays of a traced run. Each times calls into one layer's
// public functions from here, on inputs taken from the workload's own
// plan, journal and event stream, and records a span around each replay.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"redundancy"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/platform"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// replays is how many times each replay runs; the median is reported.
const replays = 5

// measure runs fn replays times and returns the median wall time and
// heap allocations of one run, each divided by ops.
func measure(ops int, fn func()) (ns, allocs float64) {
	var nsv, av []float64
	for i := 0; i < replays; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		nsv = append(nsv, float64(elapsed.Nanoseconds())/float64(ops))
		av = append(av, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	return median(nsv), median(av)
}

// layers reports a traced run's per-layer metrics: those of the traced
// rounds, then the replays of every layer, the simulators' included, so
// that each workload reports the same per-layer metrics.
func (w platformWorkload) layers(o *outcome, traced []*round, rc *runConfig) error {
	var (
		assignments                  float64
		leaseRTT, turnaround, resRTT []time.Duration
		sockWrites, wire, noWork     float64
		jWrites, jBytes              float64
		jWrote                       time.Duration
		jSyncs                       int
	)
	for _, r := range traced {
		assignments += float64(r.assignments)
		leaseRTT = append(leaseRTT, r.leaseRTT...)
		turnaround = append(turnaround, r.turnaround...)
		resRTT = append(resRTT, r.resultRTT...)
		sockWrites += float64(r.sockWrites)
		wire += r.wireBytes
		noWork += r.noWork
		jWrites += float64(r.journal.writes)
		jBytes += float64(r.journal.bytes)
		jWrote += r.journal.wrote
		jSyncs += r.journal.syncs
	}
	o.set("platform.wire.bytes_per_assignment", "B", wire/assignments)
	o.set("platform.conn.writes_per_assignment", "count", sockWrites/assignments)
	o.set("platform.worker.nowork_per_assignment", "count", noWork/assignments)
	o.set("platform.lease_wait_p99_us", "us", us(quantile(leaseRTT, 0.99)))
	o.set("platform.turnaround_p99_us", "us", us(quantile(turnaround, 0.99)))
	o.set("platform.result_rtt_p50_us", "us", us(quantile(resRTT, 0.50)))
	o.set("platform.result_rtt_p99_us", "us", us(quantile(resRTT, 0.99)))
	o.set("journal.bytes_per_record", "B", jBytes/assignments)
	o.set("journal.writes_per_assignment", "count", jWrites/assignments)
	o.set("journal.fsyncs_per_assignment", "count", float64(jSyncs)/assignments)
	o.set("journal.write_us_per_record", "us", us(jWrote)/assignments)
	o.note("traced_assignments", assignments)
	o.note("result_rtt_samples", len(resRTT))

	last := traced[len(traced)-1]
	tr := rc.tr
	// A workload with events off runs one more traced round with the
	// sink on, only to capture the event stream the Emit replay needs.
	events := last
	if events.events == nil {
		r, err := w.runRound(last.seed, rc.outDir, tr, roundOpts{events: true})
		if err != nil {
			return err
		}
		o.attempted += int64(r.assignments)
		if len(r.workerErrs) > 0 {
			o.failed += int64(r.assignments)
			o.violate("event round: workers: %v", r.workerErrs)
			return nil
		}
		for _, v := range w.check(r, roundOpts{}) {
			o.violate("event round: %s", v)
		}
		events = r
	}
	o.set("obs.event_bytes_per_assignment", "B", float64(events.events.bytes)/float64(events.assignments))

	journal, err := last.journalBytes()
	if err != nil {
		return err
	}
	specs := last.plan.Tasks()
	end := tr.beginRound()
	tr.time("replay.codec.bin", func() { codecLayer(o, "bin", leaseHot.batch, specs) })
	tr.time("replay.codec.json", func() { codecLayer(o, "json", durableLegacy.batch, specs) })
	tr.time("replay.sched.lease", func() { schedLeaseLayer(o, specs, rc.seed) })
	tr.time("replay.verify.submit", func() { err = submitLayer(o, last.plan) })
	if err == nil {
		tr.time("replay.sched.mark_completed", func() { err = markCompletedLayer(o, specs, journal, last.seed) })
	}
	tr.time("replay.obs.emit", func() { emitLayer(o, events.events.lines) })
	if err == nil {
		tr.time("replay.journal.fsync", func() {
			err = fsyncLayer(o, journal, filepath.Join(rc.outDir, "fsync.jsonl"))
		})
	}
	end("replays")
	if err != nil {
		return err
	}
	return simLayers(o, rc)
}

// fsyncLayer appends the round's journal records one by one to a
// JournalFile and fsyncs after each, as SupervisorConfig.JournalSync
// would: the per-result durability cost on this disk.
func fsyncLayer(o *outcome, recs []byte, path string) error {
	lines := bytes.SplitAfter(recs, []byte("\n"))
	if len(lines) > maxFsyncs {
		lines = lines[:maxFsyncs]
	}
	jf, err := redundancy.OpenJournalFile(path)
	if err != nil {
		return err
	}
	defer jf.Close()
	syncs := make([]time.Duration, 0, len(lines))
	for _, l := range lines {
		if len(l) == 0 {
			continue // after the final newline
		}
		if _, err := jf.Write(l); err != nil {
			return err
		}
		start := time.Now()
		if err := jf.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, time.Since(start))
	}
	o.set("journal.fsync_p50_us", "us", us(quantile(syncs, 0.50)))
	o.set("journal.fsync_p99_us", "us", us(quantile(syncs, 0.99)))
	return jf.Close()
}

// maxFsyncs bounds the fsync replay.
const maxFsyncs = 2_000

// codecLayer round-trips the frames of one lease through a Codec over an
// in-memory buffer: the lease request, the work it grants, the results
// and their acknowledgement — work_batch/result_batch items of `batch`
// assignments in binary, or the legacy one-assignment verbs in JSON.
func codecLayer(o *outcome, codec string, batch int, specs []plan.TaskSpec) {
	const cycles = 2048
	var msgs []platform.Message
	next := 0
	item := func() (int, int) {
		s := specs[next%len(specs)]
		next++
		return s.ID, next % s.Copies
	}
	for c := 0; c < cycles; c++ {
		if batch == 1 {
			id, cp := item()
			msgs = append(msgs,
				platform.Message{Type: platform.MsgRequestWork, ParticipantID: 1},
				platform.Message{Type: platform.MsgWork, TaskID: id, Copy: cp, Kind: workKind, Seed: platform.TaskSeed(id), Iters: workIters},
				platform.Message{Type: platform.MsgResult, ParticipantID: 1, TaskID: id, Copy: cp, Value: reference(id)},
				platform.Message{Type: platform.MsgAck})
			continue
		}
		work := make([]platform.WorkItem, batch)
		res := make([]platform.ResultItem, batch)
		acks := make([]platform.ResultAck, batch)
		for i := range work {
			id, cp := item()
			work[i] = platform.WorkItem{TaskID: id, Copy: cp, Seed: platform.TaskSeed(id)}
			res[i] = platform.ResultItem{TaskID: id, Copy: cp, Value: reference(id)}
			acks[i] = platform.ResultAck{TaskID: id, Copy: cp, OK: true}
		}
		msgs = append(msgs,
			platform.Message{Type: platform.MsgGetWork, ParticipantID: 1, Batch: batch},
			platform.Message{Type: platform.MsgWorkBatch, Kind: workKind, Iters: workIters, Work: work},
			platform.Message{Type: platform.MsgResultBatch, ParticipantID: 1, Results: res},
			platform.Message{Type: platform.MsgBatchAck, Acks: acks})
	}
	var buf bytes.Buffer
	c := platform.NewCodec(&buf)
	if codec == "bin" {
		c.EnableBinary()
	}
	failed := false
	ns, allocs := measure(cycles*batch, func() {
		for _, m := range msgs {
			if c.Send(m) != nil {
				failed = true
			}
			if got, err := c.Recv(); err != nil || got.Type != m.Type {
				failed = true
			}
		}
	})
	if failed {
		o.violate("codec %s: a frame did not round-trip", codec)
	}
	o.set("platform.codec."+codec+".ns_per_assignment", "ns", ns)
	o.set("platform.codec."+codec+".allocs_per_assignment", "count", allocs)
}

// schedLeaseLayer drains the workload plan's queue in leases of 16,
// completing every assignment, as the supervisor's batched path does.
func schedLeaseLayer(o *outcome, specs []plan.TaskSpec, seed uint64) {
	var queues []*sched.Queue
	for i := 0; i < replays; i++ {
		q, err := sched.NewQueue(specs, sched.Free, rng.New(seed))
		if err != nil {
			o.violate("sched: %v", err)
			return
		}
		queues = append(queues, q)
	}
	total := queues[0].Total()
	i := 0
	ns, _ := measure(total, func() {
		q := queues[i]
		i++
		dst := make([]sched.Assignment, 0, 16)
		for {
			dst = q.NextBatch(dst[:0], 16)
			if len(dst) == 0 {
				break
			}
			for _, a := range dst {
				q.Complete(a)
			}
		}
	})
	o.set("sched.lease_ns_per_assignment", "ns", ns)
}

// submitLayer feeds a collector every result of the plan, two honest
// participants alternating, in the order a shuffled queue issues them.
func submitLayer(o *outcome, p *plan.Plan) error {
	specs := p.Tasks()
	q, err := sched.NewQueue(specs, sched.Free, rng.New(1))
	if err != nil {
		return err
	}
	var results []verify.Result
	for {
		a, ok := q.Next()
		if !ok {
			break
		}
		results = append(results, verify.Result{Assignment: a, Participant: len(results) % 2, Value: reference(a.TaskID)})
	}
	var collectors []*verify.Collector
	for i := 0; i < replays; i++ {
		c := verify.NewCollector(reference)
		for _, s := range specs {
			c.Expect(s.ID, s.Copies)
		}
		collectors = append(collectors, c)
	}
	i := 0
	failed := false
	ns, allocs := measure(len(results), func() {
		c := collectors[i]
		i++
		for _, r := range results {
			if _, _, err := c.Submit(r); err != nil {
				failed = true
			}
		}
	})
	if failed {
		o.violate("verify: a replayed result was refused")
	}
	o.set("verify.submit_ns_per_assignment", "ns", ns)
	o.set("verify.submit_allocs_per_assignment", "count", allocs)
	return nil
}

// markCompletedLayer replays the round's journal into a fresh queue with
// MarkCompleted, in journal order — what restore does per record.
func markCompletedLayer(o *outcome, specs []plan.TaskSpec, journal []byte, seed uint64) error {
	var recs []sched.Assignment
	sc := bufio.NewScanner(bytes.NewReader(journal))
	for sc.Scan() {
		var rec struct {
			Task   int  `json:"task"`
			Copy   int  `json:"copy"`
			Ringer bool `json:"ringer"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return err
		}
		recs = append(recs, sched.Assignment{TaskID: rec.Task, Copy: rec.Copy, Ringer: rec.Ringer})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var queues []*sched.Queue
	for i := 0; i < replays; i++ {
		q, err := sched.NewQueue(specs, sched.Free, rng.New(seed))
		if err != nil {
			return err
		}
		queues = append(queues, q)
	}
	i, missing := 0, 0
	ns, _ := measure(len(recs), func() {
		q := queues[i]
		i++
		for _, a := range recs {
			if !q.MarkCompleted(a) {
				missing++
			}
		}
	})
	if missing > 0 {
		o.violate("sched: %d journaled assignments not found in the queue", missing)
	}
	o.set("sched.mark_completed_ns", "ns", ns)
	o.note("journal_records", len(recs))
	return nil
}

// emitLayer replays the traced round's own event lines through a sink
// that writes to io.Discard.
func emitLayer(o *outcome, lines [][]byte) {
	type event struct {
		name   string
		fields map[string]any
	}
	var events []event
	for _, l := range lines {
		var m map[string]any
		if json.Unmarshal(l, &m) != nil {
			continue
		}
		name, _ := m["event"].(string)
		delete(m, "event")
		delete(m, "ts")
		events = append(events, event{name, m})
	}
	if len(events) == 0 {
		o.violate("obs: no events captured")
		return
	}
	sink := obs.NewSink(io.Discard)
	ns, allocs := measure(len(events), func() {
		for _, e := range events {
			sink.Emit(e.name, e.fields)
		}
	})
	o.set("obs.emit_ns", "ns", ns)
	o.set("obs.emit_allocs", "count", allocs)
}
