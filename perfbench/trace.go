package main

// Spans and the wrappers that record them. Every span is taken from the
// benchmark's own side of a public boundary: a net.Conn returned by
// WorkerConfig.Dial, a listener wrapped by SupervisorConfig.WrapListener,
// the io.Writer passed as SupervisorConfig.Journal, the writer under the
// event sink, and the calls the per-layer replays make. Spans stay in
// memory and are written as JSON lines when the run ends.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"redundancy/internal/platform"
)

// maxSpans bounds the span buffer; spans past it are counted, not kept.
const maxSpans = 400_000

// span is one timed interval. Spans of one round share Trace; Parent names
// the span that caused this one (0 for a round's root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	nextID  uint64
	dropped int
	// trace and root identify the round in progress; spans recorded by
	// the wrappers hang off root.
	trace, root uint64
	// roundSpans is the most spans one round has recorded.
	roundSpans int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// beginRound starts a new trace whose spans hang off a fresh root span;
// the returned function ends the root span under the given name.
func (t *tracer) beginRound() (end func(name string)) {
	start := time.Now()
	t.mu.Lock()
	t.nextID++
	t.trace++
	t.root = t.nextID
	root, trace, first := t.root, t.trace, len(t.spans)
	t.mu.Unlock()
	return func(name string) {
		t.mu.Lock()
		t.addLocked(span{Name: name, ID: root, Trace: trace,
			Start: start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()})
		if n := len(t.spans) - first; n > t.roundSpans {
			t.roundSpans = n
		}
		t.mu.Unlock()
	}
}

// time runs fn inside a span.
func (t *tracer) time(name string, fn func()) {
	start := time.Now()
	fn()
	t.add(name, start, time.Now())
}

// add records a span under the current round's root.
func (t *tracer) add(name string, start, end time.Time) {
	t.mu.Lock()
	t.nextID++
	t.addLocked(span{Name: name, ID: t.nextID, Parent: t.root, Trace: t.trace,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// full reports whether the span buffer lacks room for another round and
// the layer replays; a traced run stops tracing new rounds then, so every
// traced round is traced whole.
func (t *tracer) full() bool {
	const replaySpans = 64
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)+t.roundSpans+replaySpans > maxSpans
}

func (t *tracer) addLocked(s span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations collects timings from several goroutines.
type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *durations) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *durations) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.d...)
}

// quantile returns the q-quantile of d by nearest rank (d is sorted in
// place).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median of a float sample (sorted in place).
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	sort.Float64s(x)
	n := len(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// resultTags are the binary verb tags of result frames, read off the
// codec itself.
var resultTags = func() map[byte]bool {
	tags := map[byte]bool{}
	for _, verb := range []string{platform.MsgResult, platform.MsgResultBatch} {
		var buf bytes.Buffer
		c := platform.NewCodec(&buf)
		c.EnableBinary()
		if err := c.Send(platform.Message{Type: verb}); err == nil && buf.Len() > 4 {
			tags[buf.Bytes()[4]] = true
		}
	}
	return tags
}()

var (
	jsonPrefix       = []byte(`{"type":"`)
	jsonResultPrefix = []byte(`{"type":"result`)
)

// resultFrame reports whether an outgoing worker frame carries results:
// a JSON result/result_batch line, or a binary frame with one of their
// verb tags. A binary frame cannot start like a JSON line: its first four
// bytes are a length far below the one `{"ty` would spell.
func resultFrame(b []byte) bool {
	if bytes.HasPrefix(b, jsonPrefix) {
		return bytes.HasPrefix(b, jsonResultPrefix)
	}
	return len(b) > 4 && resultTags[b[4]]
}

// workerConn times each request a worker sends until the first byte of
// the reply: lease round trips and result round trips (result sent → ack
// received, which includes the supervisor's journal write and fsync).
type workerConn struct {
	net.Conn
	tr        *tracer
	resultRTT *durations
	sent      time.Time
	isResult  bool
	waiting   bool
}

func (c *workerConn) Write(b []byte) (int, error) {
	if len(b) > 0 {
		c.sent, c.isResult, c.waiting = time.Now(), resultFrame(b), true
	}
	return c.Conn.Write(b)
}

func (c *workerConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.waiting {
		now := time.Now()
		c.waiting = false
		if c.isResult {
			c.resultRTT.add(now.Sub(c.sent))
			c.tr.add("worker.result_rtt", c.sent, now)
		} else {
			c.tr.add("worker.request_rtt", c.sent, now)
		}
	}
	return n, err
}

// serverListener wraps the supervisor's listener; its connections time
// each read and write call and count the writes.
type serverListener struct {
	net.Listener
	tr     *tracer
	mu     sync.Mutex
	writes int64
}

func (l *serverListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return &serverConn{Conn: c, l: l}, nil
}

func (l *serverListener) writeCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes
}

type serverConn struct {
	net.Conn
	l *serverListener
}

func (c *serverConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(b)
	c.l.tr.add("supervisor.conn_read", start, time.Now())
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.l.tr.add("supervisor.conn_write", start, time.Now())
	c.l.mu.Lock()
	c.l.writes++
	c.l.mu.Unlock()
	return n, err
}

// tracedJournal is the journal writer of a traced round: it times every
// Write and Sync the supervisor makes.
type tracedJournal struct {
	w      io.Writer
	tr     *tracer
	mu     sync.Mutex
	writes int
	bytes  int64
	wrote  time.Duration
	syncs  int
}

func (j *tracedJournal) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := j.w.Write(p)
	end := time.Now()
	j.tr.add("journal.write", start, end)
	j.mu.Lock()
	j.writes++
	j.bytes += int64(n)
	j.wrote += end.Sub(start)
	j.mu.Unlock()
	return n, err
}

func (j *tracedJournal) Sync() error {
	f, ok := j.w.(interface{ Sync() error })
	if !ok {
		return nil // an in-memory journal has nothing to flush
	}
	start := time.Now()
	err := f.Sync()
	j.tr.add("journal.fsync", start, time.Now())
	j.mu.Lock()
	j.syncs++
	j.mu.Unlock()
	return err
}

// maxKeptEvents bounds how many event lines a traced round keeps for the
// Emit replay.
const maxKeptEvents = 20_000

// eventTap sits under the event sink: it times each write, counts bytes
// and keeps the first lines for the Emit replay.
type eventTap struct {
	w     *os.File
	tr    *tracer
	mu    sync.Mutex
	bytes int64
	lines [][]byte
}

func (e *eventTap) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := e.w.Write(p)
	e.tr.add("events.write", start, time.Now())
	e.mu.Lock()
	e.bytes += int64(n)
	if len(e.lines) < maxKeptEvents {
		e.lines = append(e.lines, append([]byte(nil), p...))
	}
	e.mu.Unlock()
	return n, err
}
