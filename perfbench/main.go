// Command perfbench is the repository's benchmark. It hosts the TBWF
// service in-process and drives it with seeded open- and closed-loop
// traffic (counter-rr, kv-zipf, counter-slow), or runs a fixed fuzz plan
// set through the sim kernel (fuzz-sweep). It prints every metric by name
// and unit, checks that the outputs are correct, and ends with one JSON
// result line:
//
//	go run . --workload counter-rr --seed 1 --seconds 25 --trace 0
//	go run . --workload kv-zipf --seed 1 --seconds 25 --trace 1
//	go run . --write-reference fuzz_reference.txt
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run
// that reports the per-layer metrics. It exits non-zero when an output
// check fails. See README.md for the metrics, the workloads and the
// layer-to-end-to-end predictions.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"tbwf/internal/serve"
)

// metricDef is one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"sat_ops_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"client.rtt_p50_ms", "ms", "lower"},
	{"client.self_p50_ms", "ms", "lower"},
	{"client.read_p99_ms", "ms", "lower"},
	{"client.write_p99_ms", "ms", "lower"},
	{"serve.handler_p50_ms", "ms", "lower"},
	{"serve.handler_p99_ms", "ms", "lower"},
	{"serve.pipeline_p50_ms", "ms", "lower"},
	{"serve.pipeline_p99_ms", "ms", "lower"},
	{"serve.wire_self_p50_ms", "ms", "lower"},
	{"serve.rejected_per_op", "count", "lower"},
	{"shard.pipeline_p50_ms", "ms", "lower"},
	{"shard.pipeline_p99_ms", "ms", "lower"},
	{"shard.mean_batch", "count", "higher"},
	{"shard.hot_mean_batch", "count", "higher"},
	{"shard.shed_per_op", "count", "lower"},
	{"shard.queue_depth_max", "count", "lower"},
	{"core.invokes_per_op", "count", "lower"},
	{"core.queries_per_op", "count", "lower"},
	{"core.aborts_per_op", "count", "lower"},
	{"core.useful_ratio", "ratio", "higher"},
	{"qa.proposals_per_op", "count", "lower"},
	{"qa.nop_proposals_per_op", "count", "lower"},
	{"qa.replayed_per_op", "count", "lower"},
	{"qa.slots_per_op", "count", "lower"},
	{"elector.leader_changes_per_op", "count", "lower"},
	{"monitor.suspicions_per_s", "1/s", "lower"},
	{"rt.steps_per_op", "count", "lower"},
	{"rt.ns_per_step", "ns", "lower"},
	{"rt.timely_max_gap_ms", "ms", "lower"},
	{"rt.slow_max_gap_ms", "ms", "higher"},
	{"slow.completed_per_s", "1/s", "higher"},
	{"slow.refused_per_op", "count", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.bytes_per_op", "B", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"sim.steps", "count", "lower"},
	{"sim.steps_per_s", "1/s", "higher"},
	{"explore.execute_p50_ms", "ms", "lower"},
	{"explore.execute_max_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// workload is one benchmark workload.
type workload interface {
	run(o runOpts) (*outcome, error)
}

// queueDepth bounds each replica's (and each shard × replica's) request
// queue. The default 64 refused requests with 503 whenever the host
// stalled the service for 150–300 ms under the open loop, or when a
// closed loop's requests piled onto one replica; 1024 holds more than a
// closed loop keeps in flight and a stall of a second or more at the
// open-loop rates, so no healthy run is refused.
const queueDepth = 1024

// workloads are the benchmark's workloads by name; README.md says why
// each was chosen.
var workloads = map[string]workload{
	"counter-rr": serviceWorkload{
		cfg:    serve.Config{N: 3, Object: "counter", QueueDepth: queueDepth},
		gen:    genSpec{mix: []weighted{{"add", 9}, {"read", 1}}, slow: -1},
		rate:   1200,
		closed: 96,
	},
	"kv-zipf": serviceWorkload{
		cfg:    serve.Config{N: 3, Object: "counter", Shards: 8, MaxBatch: 16, QueueDepth: queueDepth},
		gen:    genSpec{mix: []weighted{{"get", 1}, {"add", 1}}, keys: 64, zipf: 1.2, slow: -1},
		rate:   3200,
		closed: 192,
	},
	"counter-slow": serviceWorkload{
		cfg:            serve.Config{N: 3, Object: "counter", QueueDepth: queueDepth},
		gen:            genSpec{mix: []weighted{{"add", 9}, {"read", 1}}, replicas: []int{0, 1, 2}, slow: 2},
		rate:           600,
		closed:         64, // counter-rr's 32 per replica, on the two timely ones
		closedReplicas: []int{0, 1},
		slowSpec:       "growing:400:2ms:1.5",
	},
	"fuzz-sweep": fuzzWorkload{},
}

// runOpts is one run's command line.
type runOpts struct {
	name     string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string // further figures, printed but not in the JSON result
	checkErrs         []string // output check violations
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of a run's output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

//go:embed fuzz_reference.txt
var fuzzReference string

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	writeRef := fs.String("write-reference", "", "execute the fuzz corpus, write its reference to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := runOpts{name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut}
	fmt.Fprintf(stdout, "host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "run: workload %s, seed %d, seconds %d, trace %d\n", o.name, o.seed, o.seconds, *trace)
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := result(out, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	for _, e := range out.checkErrs {
		fmt.Fprintln(stdout, "CHECK FAILED:", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result assembles the JSON result: every end-to-end metric of an
// untraced run, or every per-layer metric of a traced one. A layer that
// did no work on the workload reports 0.
func result(out *outcome, traced bool) (resultJSON, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   len(out.checkErrs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for n := range out.metrics {
		if !known[n] {
			return res, fmt.Errorf("metric %q is in neither list", n)
		}
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("no request or plan was attempted")
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// traceFile is where a traced run writes its spans.
func traceFile(o runOpts) string {
	return filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl", o.name, o.seed))
}
