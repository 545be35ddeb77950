// Command perfbench is the repository's benchmark. One invocation runs one
// workload in this process for a fixed number of seconds, checks the
// program's outputs against computations made apart from the program, and
// prints every metric by name and unit. The last line of standard output
// is the result object; the line before it is a report carrying the
// workload seed, the host fingerprint and the per-round figures.
//
//	perfbench --workload lease-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the same workload runs with spans recorded at every
// boundary reachable from outside the program, the per-layer replays run
// after it, and the metrics printed are the per-layer ones. README.md
// lists every metric, the layer it measures and the end-to-end metric it
// should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	// outDir holds the run's scratch files (journal, event log) and the
	// span file of a traced run.
	outDir string
	// tr is nil for a timed run and records spans in a traced one.
	tr *tracer
}

// outcome is what a workload hands back: the operation counts, the
// metrics of the mode it ran in, the failures of its output checks, and
// free-form detail for the report line.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	violations        []string
	detail            map[string]any
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

func (o *outcome) note(key string, v any) {
	if o.detail == nil {
		o.detail = map[string]any{}
	}
	o.detail[key] = v
}

type workload struct {
	// procs is the workload's GOMAXPROCS; 0 means every CPU.
	procs int
	run   func(rc *runConfig) (*outcome, error)
}

var workloads = map[string]workload{
	"lease-hot":      {procs: 1, run: leaseHot.run},
	"durable-legacy": {procs: 1, run: durableLegacy.run},
}

func main() {
	name := flag.String("workload", "", "workload to run: durable-legacy or lease-hot")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "run"), "directory for scratch files and the span file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	rc := &runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		outDir:  filepath.Join(*out, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fatal(err)
	}
	if *trace == 1 {
		rc.tr = newTracer()
	}

	o, err := w.run(rc)
	if err != nil {
		os.RemoveAll(rc.outDir)
		fatal(err)
	}
	o.set("peak_rss_mb", "MB", peakRSSMB())
	if rc.tr != nil {
		spans := filepath.Join(*out, fmt.Sprintf("%s-seed%d.spans.jsonl", *name, *seed))
		if err := rc.tr.writeFile(spans); err != nil {
			fatal(err)
		}
		o.note("span_file", spans)
		o.note("spans", len(rc.tr.spans))
		o.note("spans_dropped", rc.tr.dropped)
	}
	os.RemoveAll(rc.outDir)

	res := result{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   selectMetrics(o.metrics, *trace == 1),
	}
	report := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"host":       hostFingerprint(),
		"violations": o.violations,
		"detail":     o.detail,
	}
	stdout := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{"report": report})
	enc.Encode(res)
	if err := stdout.Flush(); err != nil {
		fatal(err)
	}
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	if !res.Correct || o.failed > 0 {
		os.Exit(1)
	}
}

// selectMetrics keeps the end-to-end metrics in a timed run and the
// per-layer ones (dotted names) in a traced run.
func selectMetrics(all map[string]metric, traced bool) map[string]metric {
	out := map[string]metric{}
	for k, v := range all {
		if strings.Contains(k, ".") == traced {
			out[k] = v
		}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// hostFingerprint identifies the machine a figure was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
