package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"tbwf/internal/serve"
)

const (
	// setupRuns is how many times a run deploys the service; setup_s is
	// the median, and the last deploy is the one measured.
	setupRuns = 7
	// warmup is the open-loop traffic sent before any measurement.
	warmup = 2 * time.Second
	// pollEvery is the traced leg's /v1/metrics sampling period.
	pollEvery = 100 * time.Millisecond
)

// serviceWorkload is a live workload: the service deployed in-process and
// driven over HTTP/2 by an open loop at a fixed rate, then by a closed
// loop holding a fixed number of requests in flight.
type serviceWorkload struct {
	cfg  serve.Config
	gen  genSpec
	rate float64 // open-loop offered rate, ops/s
	// closed is the closed loop's in-flight count; closedReplicas its
	// routing (nil: the server routes).
	closed         int
	closedReplicas []int
	// slowSpec is the pacing profile gen.slow is retuned to through
	// /v1/fault at the end of warm-up.
	slowSpec string
}

// poller samples /v1/metrics during the traced leg for what the report
// only shows as a current value: queue depths and shard leader vectors.
type poller struct {
	stop          chan struct{}
	done          chan struct{}
	maxQueue      int
	leaderChanges int64
}

func startPoller(h *host) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		var prev [][]int
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			rep, err := h.report()
			if err != nil {
				continue
			}
			cur := make([][]int, len(rep.Shards))
			for i, sm := range rep.Shards {
				for _, d := range sm.QueueDepth {
					p.maxQueue = max(p.maxQueue, d)
				}
				cur[i] = sm.Leaders
				if prev != nil {
					for q := range cur[i] {
						if cur[i][q] != prev[i][q] {
							p.leaderChanges++
						}
					}
				}
			}
			prev = cur
		}
	}()
	return p
}

// finish stops the poller and waits for it.
func (p *poller) finish() {
	close(p.stop)
	<-p.done
}

// legs holds what one run measured.
type legs struct {
	setups       []float64
	history      []*record // every request, warm-up included, for the checks
	open, closed []*record // the untraced measured legs
	traced       []*record // the traced open leg (trace runs only)
	openDur      time.Duration
	closedDur    time.Duration
	closedStart  time.Time
	rss          float64 // mean resident MiB over the measured legs
	tracedDur    time.Duration
	before       snap // around the untraced open leg, or the traced one
	after        snap
	spans        []span
	poll         *poller
	final        int64            // counter: final read
	finals       map[string]int64 // kv: final read per key
}

func (w serviceWorkload) run(o runOpts) (*outcome, error) {
	lg, err := w.measure(o)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	if w.gen.keys > 0 {
		out.checkErrs = checkKV(lg.history, lg.finals)
	} else {
		out.checkErrs = checkCounter(lg.history, lg.final)
	}
	timely := func(rs []*record) []*record {
		var t []*record
		for _, r := range rs {
			if !r.slow {
				t = append(t, r)
			}
		}
		return t
	}
	open := timely(lg.open)
	measured := slices.Concat(open, lg.closed, timely(lg.traced))
	for _, r := range measured {
		out.attempted++
		if !r.good() {
			out.failed++
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("error_rate %.6f (failed %d of %d timely requests%s)",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted, failureBreakdown(measured)))
	lat := latencies(open)
	reads, writes := splitReadWrite(open)
	out.notes = append(out.notes,
		"p99_ms: "+supportNote(len(lat)),
		fmt.Sprintf("read_p99_ms %.4f ms (%s)", censor(quantile(reads, 0.99), reqTimeout), supportNote(len(reads))),
		fmt.Sprintf("write_p99_ms %.4f ms (%s)", censor(quantile(writes, 0.99), reqTimeout), supportNote(len(writes))))
	m := out.metrics
	m["setup_s"] = median(lg.setups)
	m["rss_mb"] = lg.rss
	if !o.trace {
		m["p50_ms"] = censor(quantile(lat, 0.5), reqTimeout)
		p99, perWindow := quietP99(open, lg.open[0].due, lg.openDur)
		m["p99_ms"] = censor(p99, reqTimeout)
		sat, perSecond := quietRate(lg.closed, lg.closedStart, lg.closedDur)
		m["sat_ops_s"] = sat
		out.notes = append(out.notes,
			fmt.Sprintf("p99_ms per window: %.4g", perWindow),
			fmt.Sprintf("sat_ops_s per window: %.0f", perSecond))
		m["cpu_ms_per_op"] = ratio(ms(lg.after.cpu-lg.before.cpu), float64(countGood(open)))
		return out, nil
	}
	if err := w.layerMetrics(o, lg, open, timely(lg.traced), m); err != nil {
		return nil, err
	}
	return out, nil
}

// measure deploys the service and drives it through warm-up and the
// measured legs, then reads the final state and closes the deploy.
func (w serviceWorkload) measure(o runOpts) (*legs, error) {
	lg := &legs{}
	var h *host
	for i := 0; i < setupRuns; i++ {
		hi, d, err := startHost(w.cfg)
		if err != nil {
			return nil, err
		}
		lg.setups = append(lg.setups, d.Seconds())
		if i < setupRuns-1 {
			if err := hi.close(); err != nil {
				return nil, fmt.Errorf("stop setup deploy: %w", err)
			}
			continue
		}
		h = hi
	}
	gen := newGenerator(w.gen, o.seed, &h.nextID)
	lg.history = h.openLoop(gen, w.rate, warmup)
	if w.gen.slow >= 0 {
		if err := h.post("/v1/fault", map[string]any{"process": w.gen.slow, "spec": w.slowSpec}); err != nil {
			h.close()
			return nil, err
		}
	}
	total := time.Duration(o.seconds) * time.Second
	var err error
	rss := startRSS()
	if !o.trace {
		lg.openDur = total * 3 / 5
		lg.closedDur = total - lg.openDur
		if lg.before, err = takeSnap(h); err == nil {
			lg.open = h.openLoop(gen, w.rate, lg.openDur)
			lg.after, err = takeSnap(h)
		}
		if err == nil {
			cspec := w.gen
			cspec.replicas = w.closedReplicas
			gens := make([]*generator, w.closed)
			for i := range gens {
				gens[i] = newGenerator(cspec, o.seed*7919+int64(i)+1, &h.nextID)
				gens[i].i = i // spread the workers' first requests over the replicas
			}
			lg.closed, lg.closedStart = h.closedLoop(gens, lg.closedDur)
		}
	} else {
		lg.openDur, lg.tracedDur = total/2, total-total/2
		lg.open = h.openLoop(gen, w.rate, lg.openDur)
		tr := newTracer()
		lg.poll = startPoller(h)
		if lg.before, err = takeSnap(h); err == nil {
			h.tr.Store(tr)
			lg.traced = h.openLoop(gen, w.rate, lg.tracedDur)
			h.tr.Store(nil)
			lg.after, err = takeSnap(h)
		}
		lg.poll.finish()
		lg.spans = tr.snapshot()
	}
	lg.rss = rss.finish()
	if err == nil {
		err = w.finalReads(h, lg)
	}
	if cerr := h.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stop service: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	for _, part := range [][]*record{lg.open, lg.closed, lg.traced} {
		lg.history = append(lg.history, part...)
	}
	return lg, nil
}

// finalReads reads the object's final state through timely replica 0
// (counter) or once per key the history touched (kv).
func (w serviceWorkload) finalReads(h *host, lg *legs) error {
	if w.gen.keys == 0 {
		r := &record{request: request{id: h.nextID.Add(1), kind: "read", replica: 0}}
		h.send(r)
		if !r.ok {
			return fmt.Errorf("final read failed (status %d)", r.status)
		}
		lg.final = r.prev
		return nil
	}
	lg.finals = map[string]int64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for key := 0; key < w.gen.keys; key++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := fmt.Sprintf("k%d", key)
			r := &record{request: request{id: h.nextID.Add(1), kind: "get", key: k, replica: -1}}
			h.send(r)
			mu.Lock()
			defer mu.Unlock()
			if !r.ok && firstErr == nil {
				firstErr = fmt.Errorf("final read of %s failed (status %d)", k, r.status)
			}
			lg.finals[k] = r.prev
		}()
	}
	wg.Wait()
	return firstErr
}

// layerMetrics computes the per-layer metrics of a traced run.
func (w serviceWorkload) layerMetrics(o runOpts, lg *legs, untraced, traced []*record, m map[string]float64) error {
	// Close each request's pipeline interval: it ends when the handler
	// began its response and lasted the latency the response reports.
	respond := map[uint64]int64{}
	for _, s := range lg.spans {
		if s.Name == "serve.respond" {
			respond[s.ID] = s.End
		}
	}
	pipe := "serve.pipeline"
	if w.gen.keys > 0 {
		pipe = "shard.pipeline"
	}
	spans := lg.spans
	for _, r := range traced {
		if at, ok := respond[r.id]; ok && r.ok {
			spans = append(spans, span{Name: pipe, ID: r.id, Parent: "serve.ServeHTTP",
				Start: at - int64(r.latencyUS*1e3), End: at})
		}
	}
	if o.traceOut != "" {
		tr := &tracer{spans: spans}
		if err := tr.write(traceFile(o)); err != nil {
			return err
		}
	}
	// Layer figures describe the requests that succeeded; a refusal's
	// short handler span would otherwise read as a fast handler.
	good := map[uint64]bool{}
	for _, r := range traced {
		good[r.id] = r.good()
	}
	var kept []span
	for _, s := range spans {
		if good[s.ID] {
			kept = append(kept, s)
		}
	}
	spans = kept
	self := selfTimes(spans)
	q := func(vals []float64, p float64) float64 { return censor(quantile(sortedCopy(vals), p), reqTimeout) }

	late := make([]float64, 0, len(untraced))
	for _, r := range untraced {
		late = append(late, ms(r.sent.Sub(r.due)))
	}
	m["loadgen.late_p99_ms"] = q(late, 0.99)
	reads, writes := splitReadWrite(untraced)
	m["client.read_p99_ms"] = censor(quantile(reads, 0.99), reqTimeout)
	m["client.write_p99_ms"] = censor(quantile(writes, 0.99), reqTimeout)
	m["client.rtt_p50_ms"] = q(durations(spans, "loadgen.request"), 0.5)
	m["client.self_p50_ms"] = q(self["loadgen.request"], 0.5)
	handler := durations(spans, "serve.ServeHTTP")
	m["serve.handler_p50_ms"] = q(handler, 0.5)
	m["serve.handler_p99_ms"] = q(handler, 0.99)
	m["serve.wire_self_p50_ms"] = q(self["serve.ServeHTTP"], 0.5)
	if pl := durations(spans, pipe); len(pl) > 0 {
		m[pipe+"_p50_ms"] = q(pl, 0.5)
		m[pipe+"_p99_ms"] = q(pl, 0.99)
	}
	tracedP50 := censor(quantile(latencies(traced), 0.5), reqTimeout)
	untracedP50 := censor(quantile(latencies(untraced), 0.5), reqTimeout)
	m["trace.overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50

	ops := float64(countGood(traced))
	b, a := lg.before.rep, lg.after.rep
	var steps, rejected, inv, qry, abo, done, prop, nop, repl, faults int64
	for p := range a.Processes {
		pa, pb := a.Processes[p], b.Processes[p]
		steps += pa.Steps - pb.Steps
		rejected += pa.Rejected - pb.Rejected
		inv += pa.Client.Invokes - pb.Client.Invokes
		qry += pa.Client.Queries - pb.Client.Queries
		abo += pa.Client.Aborts - pb.Client.Aborts
		done += pa.Client.Completed - pb.Client.Completed
		prop += pa.QA.Proposals - pb.QA.Proposals
		nop += pa.QA.NopProposals - pb.QA.NopProposals
		repl += pa.QA.SlotsReplayed - pb.QA.SlotsReplayed
		if p == w.gen.slow {
			m["rt.slow_max_gap_ms"] = pa.MaxGapUS / 1e3
		} else {
			m["rt.timely_max_gap_ms"] = math.Max(m["rt.timely_max_gap_ms"], pa.MaxGapUS/1e3)
		}
	}
	for i := range a.Faults.Matrix {
		for j := range a.Faults.Matrix[i] {
			faults += a.Faults.Matrix[i][j]
			if i < len(b.Faults.Matrix) && j < len(b.Faults.Matrix[i]) {
				faults -= b.Faults.Matrix[i][j]
			}
		}
	}
	secs := lg.after.at.Sub(lg.before.at).Seconds()
	m["serve.rejected_per_op"] = ratio(float64(rejected), ops)
	m["core.invokes_per_op"] = ratio(float64(inv), ops)
	m["core.queries_per_op"] = ratio(float64(qry), ops)
	m["core.aborts_per_op"] = ratio(float64(abo), ops)
	m["core.useful_ratio"] = ratio(float64(done), float64(inv+qry))
	m["qa.proposals_per_op"] = ratio(float64(prop), ops)
	m["qa.nop_proposals_per_op"] = ratio(float64(nop), ops)
	m["qa.replayed_per_op"] = ratio(float64(repl), ops)
	slots := a.QASlots - b.QASlots
	var served, batches, shed, hotAcc, hotServed, hotBatches int64
	for i := range a.Shards {
		sa, sb := a.Shards[i], b.Shards[i]
		slots += sa.QASlots - sb.QASlots
		served += sa.Served - sb.Served
		batches += sa.Batches - sb.Batches
		shed += (sa.ShedRL + sa.ShedQF + sa.ShedIF) - (sb.ShedRL + sb.ShedQF + sb.ShedIF)
		if acc := sa.Accepted - sb.Accepted; acc > hotAcc {
			hotAcc, hotServed, hotBatches = acc, sa.Served-sb.Served, sa.Batches-sb.Batches
		}
	}
	m["qa.slots_per_op"] = ratio(float64(slots), ops)
	m["shard.mean_batch"] = ratio(float64(served), float64(batches))
	m["shard.hot_mean_batch"] = ratio(float64(hotServed), float64(hotBatches))
	m["shard.shed_per_op"] = ratio(float64(shed), ops)
	m["shard.queue_depth_max"] = float64(lg.poll.maxQueue)
	leaderChanges := a.Leader.Changes - b.Leader.Changes
	if w.gen.keys > 0 {
		leaderChanges = lg.poll.leaderChanges
	}
	m["elector.leader_changes_per_op"] = ratio(float64(leaderChanges), ops)
	m["monitor.suspicions_per_s"] = ratio(float64(faults), secs)
	m["rt.steps_per_op"] = ratio(float64(steps), ops)
	m["rt.ns_per_step"] = ratio(float64(lg.after.cpu-lg.before.cpu), float64(steps))
	m["go.allocs_per_op"] = ratio(float64(lg.after.mallocs-lg.before.mallocs), ops)
	m["go.bytes_per_op"] = ratio(float64(lg.after.bytes-lg.before.bytes), ops)
	m["go.gc_cpu_fraction"] = ratio(lg.after.gcCPU-lg.before.gcCPU, lg.after.allCPU-lg.before.allCPU)
	if w.gen.slow >= 0 {
		var slowN, slowGood, slowRefused int
		for _, r := range lg.traced {
			if r.slow {
				slowN++
				if r.ok {
					slowGood++
				}
				if r.refused() {
					slowRefused++
				}
			}
		}
		m["slow.completed_per_s"] = ratio(float64(slowGood), secs)
		m["slow.refused_per_op"] = ratio(float64(slowRefused), float64(slowN))
	}
	return nil
}

// latencies returns the sorted due-time latencies of recs, failures +Inf.
func latencies(recs []*record) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.latency())
	}
	return sortedCopy(out)
}

// splitReadWrite returns the sorted due-time latencies of reads and writes.
func splitReadWrite(recs []*record) (reads, writes []float64) {
	for _, r := range recs {
		if r.isRead() {
			reads = append(reads, r.latency())
		} else {
			writes = append(writes, r.latency())
		}
	}
	return sortedCopy(reads), sortedCopy(writes)
}

func countGood(recs []*record) int {
	n := 0
	for _, r := range recs {
		if r.good() {
			n++
		}
	}
	return n
}

// supportNote says how many samples rank above a p99 of n samples, and
// which percentile the tail should be read at when p99 has too few.
func supportNote(n int) string {
	b := beyond(n, 0.99)
	if b >= minBeyond {
		return fmt.Sprintf("%d samples, %d beyond p99", n, b)
	}
	q, ok := tailQuantile(n)
	if !ok {
		return fmt.Sprintf("%d samples, too few for any tail", n)
	}
	return fmt.Sprintf("%d samples, only %d beyond p99; highest supported tail p%g", n, b, q*100)
}

// failureBreakdown counts failed requests by HTTP status (0: no response).
func failureBreakdown(recs []*record) string {
	by := map[int]int{}
	wrong := 0
	for _, r := range recs {
		switch {
		case r.wrong:
			wrong++
		case !r.ok:
			by[r.status]++
		}
	}
	var b strings.Builder
	codes := make([]int, 0, len(by))
	for c := range by {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "; status %d: %d", c, by[c])
	}
	if wrong > 0 {
		fmt.Fprintf(&b, "; wrong answers: %d", wrong)
	}
	return b.String()
}
