package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tbwf/internal/explore"
)

const (
	// fuzzBudget is every plan's step budget.
	fuzzBudget = 50_000
	// fuzzSeeds is the corpus size: every non-ablated target runs on
	// seeds 1..fuzzSeeds, and the reference covers exactly those plans.
	fuzzSeeds = 16
	// fuzzSetupRuns is how many times a run builds its plan set.
	fuzzSetupRuns = 21
)

// fuzzWorkload runs a fixed plan corpus through explore.Execute on one
// worker per CPU, again and again until the run's time is up. The run's
// seed fixes the order the plans are dispatched in, and so which plans
// share the CPUs; the corpus itself is the same on every seed, so a
// sweep's work, and its exact sim step count, do not depend on the seed.
type fuzzWorkload struct{}

// corpusSeeds are the plan seeds of the corpus.
func corpusSeeds() []int64 {
	seeds := make([]int64, fuzzSeeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// buildPlans makes one plan per non-ablated target and seed.
func buildPlans(seeds []int64) []explore.Plan {
	var plans []explore.Plan
	for _, tgt := range explore.Targets() {
		if tgt.Ablated {
			continue
		}
		for _, s := range seeds {
			plans = append(plans, explore.NewPlan(tgt, s, fuzzBudget))
		}
	}
	return plans
}

// planKey names a plan in the reference.
func planKey(p explore.Plan) string { return p.Target + " " + strconv.FormatInt(p.Seed, 10) }

// fingerprint is what the reference pins for a plan: steps executed,
// trace hash, and a digest of every verdict's oracle, status and detail.
func fingerprint(out *explore.Outcome) string {
	h := fnv.New64a()
	status := make([]string, len(out.Verdicts))
	for i, v := range out.Verdicts {
		fmt.Fprintln(h, v.String())
		st := "ok"
		switch {
		case !v.OK:
			st = "FAIL"
		case strings.HasPrefix(v.Detail, "vacuous"):
			st = "vacuous"
		}
		status[i] = v.Oracle + "=" + st
	}
	return fmt.Sprintf("%d %s %s verdicts:%016x", out.Steps, out.TraceHash, strings.Join(status, ","), h.Sum64())
}

// parseReference reads the plan fingerprints kept with the benchmark.
func parseReference(text string) (map[string]string, error) {
	ref := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			return nil, fmt.Errorf("fuzz reference: bad line %q", line)
		}
		ref[f[0]+" "+f[1]] = f[2]
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("fuzz reference is empty (regenerate it with --write-reference)")
	}
	return ref, nil
}

// checkFuzz compares one executed plan with its reference fingerprint.
func checkFuzz(ref map[string]string, p explore.Plan, got string) error {
	want, ok := ref[planKey(p)]
	if !ok {
		return fmt.Errorf("fuzz %s: no reference", planKey(p))
	}
	if got != want {
		return fmt.Errorf("fuzz %s: got %q, reference %q", planKey(p), got, want)
	}
	return nil
}

// execution is one plan run.
type execution struct {
	plan  int
	start time.Time
	dur   time.Duration
	steps int64
	print string
	err   error
}

// sweep executes every plan once, in the given order, on one worker per
// CPU.
func sweep(plans []explore.Plan, order []int) []execution {
	jobs := make(chan int)
	out := make([]execution, len(plans))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				o, err := explore.SafeExecute(plans[i])
				e := execution{plan: i, start: t0, dur: time.Since(t0), err: err}
				if err == nil {
					e.steps, e.print = o.Steps, fingerprint(o)
				}
				out[i] = e
			}
		}()
	}
	for _, i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// sweepSet is what repeated sweeps measured.
type sweepSet struct {
	execs []execution
	walls []float64 // each sweep's wall time, s
	p99s  []float64 // each sweep's p99 plan time, ms
	cpu   time.Duration
}

// sweeps repeats sweep until dur has passed (at least once).
func sweeps(plans []explore.Plan, order []int, dur time.Duration) sweepSet {
	var ss sweepSet
	cpu0 := processCPU()
	deadline := time.Now().Add(dur)
	for len(ss.walls) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		execs := sweep(plans, order)
		ss.walls = append(ss.walls, time.Since(t0).Seconds())
		ss.p99s = append(ss.p99s, quantile(execLatencies(execs), 0.99))
		ss.execs = append(ss.execs, execs...)
	}
	ss.cpu = processCPU() - cpu0
	return ss
}

func (fuzzWorkload) run(o runOpts) (*outcome, error) {
	ref, err := parseReference(fuzzReference)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var plans []explore.Plan
	for i := 0; i < fuzzSetupRuns; i++ {
		t0 := time.Now()
		plans = buildPlans(corpusSeeds())
		setups = append(setups, time.Since(t0).Seconds())
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(plans))
	total := time.Duration(o.seconds) * time.Second
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	m["setup_s"] = median(setups)
	out.notes = append(out.notes, fmt.Sprintf("plan corpus: %d plans (%d targets × seeds 1..%d), budget %d steps, order from seed %d",
		len(plans), len(plans)/fuzzSeeds, fuzzSeeds, fuzzBudget, o.seed))

	measure := total
	if o.trace {
		measure = total / 2
	}
	rss := startRSS()
	plain := sweeps(plans, order, measure)
	lat := execLatencies(plain.execs)
	var traced sweepSet
	if o.trace {
		tr := newTracer()
		before, err := takeSnap(nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		traced = sweeps(plans, order, total-measure)
		secs := time.Since(t0).Seconds()
		after, err := takeSnap(nil)
		if err != nil {
			return nil, err
		}
		for k, e := range traced.execs {
			tr.add(span{Name: "explore.Execute", ID: uint64(k + 1), Start: tr.at(e.start), End: tr.at(e.start.Add(e.dur))})
		}
		if o.traceOut != "" {
			if err := tr.write(traceFile(o)); err != nil {
				return nil, err
			}
		}
		tl := execLatencies(traced.execs)
		var steps, sweepSteps int64
		for i, e := range traced.execs {
			steps += e.steps
			if i < len(plans) {
				sweepSteps += e.steps
			}
		}
		n := float64(len(traced.execs))
		m["sim.steps"] = float64(sweepSteps)
		m["sim.steps_per_s"] = float64(steps) / secs
		m["explore.execute_p50_ms"] = quantile(tl, 0.5)
		m["explore.execute_max_ms"] = tl[len(tl)-1]
		m["go.allocs_per_op"] = float64(after.mallocs-before.mallocs) / n
		m["go.bytes_per_op"] = float64(after.bytes-before.bytes) / n
		m["go.gc_cpu_fraction"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
		m["trace.overhead_pct"] = 100 * (quantile(tl, 0.5) - quantile(lat, 0.5)) / quantile(lat, 0.5)
		out.notes = append(out.notes, fmt.Sprintf("traced sweeps: %d, median %.3f s", len(traced.walls), median(traced.walls)))
	}
	m["rss_mb"] = rss.finish()
	for _, e := range append(plain.execs, traced.execs...) {
		out.attempted++
		err := e.err
		if err == nil {
			err = checkFuzz(ref, plans[e.plan], e.print)
		}
		if err != nil {
			out.failed++
			if len(out.checkErrs) < 20 {
				out.checkErrs = append(out.checkErrs, err.Error())
			}
		}
	}
	if !o.trace {
		m["p50_ms"] = quantile(lat, 0.5)
		// The quiet-window estimators of stats.go, with a sweep as the window.
		m["p99_ms"] = quantile(sortedCopy(plain.p99s), 0.25)
		m["sat_ops_s"] = float64(len(plans)) / quantile(sortedCopy(plain.walls), 0.25)
		m["cpu_ms_per_op"] = ms(plain.cpu) / float64(len(plain.execs))
	}
	out.notes = append(out.notes,
		fmt.Sprintf("sweep_s %.4f s (median of %d sweeps)", median(plain.walls), len(plain.walls)),
		fmt.Sprintf("p99 over all executions %.4f ms; %s", quantile(lat, 0.99), supportNote(len(lat))))
	return out, nil
}

func execLatencies(execs []execution) []float64 {
	out := make([]float64, len(execs))
	for i, e := range execs {
		out[i] = ms(e.dur)
	}
	return sortedCopy(out)
}

// writeReference executes the corpus and writes the fingerprints to path.
func writeReference(path string) error {
	plans := buildPlans(corpusSeeds())
	order := make([]int, len(plans))
	for i := range order {
		order[i] = i
	}
	execs := sweep(plans, order)
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench fuzz-sweep reference: target seed steps trace-hash verdicts (budget %d)\n", fuzzBudget)
	for _, e := range execs {
		if e.err != nil {
			return fmt.Errorf("reference %s: %w", planKey(plans[e.plan]), e.err)
		}
		fmt.Fprintf(&b, "%s %s\n", planKey(plans[e.plan]), e.print)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
