package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tbwf/internal/explore"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// okAt is a successful request due at t0+due ms, answered at t0+done ms.
func okAt(due, done float64) *record {
	return &record{
		due:  t0.Add(time.Duration(due * 1e6)),
		sent: t0.Add(time.Duration((due + 1) * 1e6)),
		done: t0.Add(time.Duration(done * 1e6)),
		ok:   true, status: 200,
	}
}

func TestLatencyIsTimedFromDue(t *testing.T) {
	r := okAt(10, 25) // sent 1 ms late: the lateness counts
	if got := r.latency(); got != 15 {
		t.Fatalf("latency %v ms, want 15 (from due, not from send)", got)
	}
	r.wrong = true
	if !math.IsInf(r.latency(), 1) {
		t.Fatalf("a wrong answer ranks %v, want +Inf", r.latency())
	}
}

func TestFailuresRankAsInfinity(t *testing.T) {
	var recs []*record
	for i := 0; i < 98; i++ {
		recs = append(recs, okAt(0, float64(i+1)))
	}
	// Two failures: a refusal and a request that never got an answer.
	recs = append(recs, &record{status: 503}, &record{status: 0})
	lat := latencies(recs)
	if got := quantile(lat, 0.5); got != 50 {
		t.Fatalf("p50 %v, want 50", got)
	}
	if got := quantile(lat, 0.98); got != 98 {
		t.Fatalf("p98 %v, want 98", got)
	}
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 %v, want +Inf: two failures in 100 reach the top percent", got)
	}
	if got := censor(quantile(lat, 0.99), reqTimeout); got != ms(reqTimeout) {
		t.Fatalf("censored p99 %v, want the timeout %v", got, ms(reqTimeout))
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has only %d beyond", c.n, got*100, beyond(c.n, got))
		}
	}
}

func TestQuietP99(t *testing.T) {
	// Four 1 s windows of 1000 requests. The p99 (the 990th) of window w
	// is base+w; three windows are disturbed.
	build := func(base float64) []*record {
		var recs []*record
		for w := 0; w < 4; w++ {
			for i := 0; i < 1000; i++ {
				lat := 10.0
				if i >= 989 {
					lat = base + float64(w)
				}
				if w > 0 && i >= 500 {
					lat = 500
				}
				due := float64(w*1000 + i)
				recs = append(recs, okAt(due, due+lat))
			}
		}
		return recs
	}
	got, wins := quietP99(build(20), t0, 4*time.Second)
	if len(wins) != 4 || got != 20 {
		t.Fatalf("quietP99 %v over %v, want 20 from four windows", got, wins)
	}
	// A program that got slower moves every window, and so the figure.
	if got, _ := quietP99(build(30), t0, 4*time.Second); got != 30 {
		t.Fatalf("quietP99 %v after a uniform slowdown, want 30", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "loadgen.request", ID: 1, Start: 0, End: 100},
		{Name: "serve.ServeHTTP", ID: 1, Parent: "loadgen.request", Start: 20, End: 70},
		{Name: "serve.pipeline", ID: 1, Parent: "serve.ServeHTTP", Start: 30, End: 60},
		{Name: "serve.pipeline", ID: 1, Parent: "serve.ServeHTTP", Start: 50, End: 80}, // overlaps, runs past its parent
		{Name: "loadgen.request", ID: 2, Start: 0, End: 10},
	}
	self := selfTimes(spans)
	ns := func(v float64) float64 { return math.Round(v * 1e6) }
	if got := ns(self["loadgen.request"][0]); got != 50 {
		t.Errorf("request self %v ns, want 50", got)
	}
	if got := ns(self["loadgen.request"][1]); got != 10 {
		t.Errorf("childless request self %v ns, want 10", got)
	}
	if got := ns(self["serve.ServeHTTP"][0]); got != 10 { // 50 − union [30,70)
		t.Errorf("handler self %v ns, want 10", got)
	}
}

// counterHistory is a correct counter history: n acknowledged adds with
// prevs 0..n-1 and one read.
func counterHistory(n int) []*record {
	var recs []*record
	for i := 0; i < n; i++ {
		r := okAt(0, 1)
		r.kind, r.delta, r.prev = "add", 1, int64(n-1-i)
		recs = append(recs, r)
	}
	r := okAt(0, 1)
	r.kind, r.prev = "read", int64(n/2)
	return append(recs, r)
}

func TestCheckCounterTeeth(t *testing.T) {
	if errs := checkCounter(counterHistory(20), 20); len(errs) != 0 {
		t.Fatalf("correct history rejected: %v", errs)
	}
	recs := counterHistory(20)
	recs[3].prev = recs[4].prev // a corrupted prev: two adds claim one slot
	if errs := checkCounter(recs, 20); len(errs) == 0 || !recs[4].wrong && !recs[3].wrong {
		t.Fatalf("duplicate prev not caught: %v", errs)
	}
	recs = counterHistory(20)
	recs[20].prev = 21 // a read from the future
	if errs := checkCounter(recs, 20); len(errs) == 0 || !recs[20].wrong {
		t.Fatalf("impossible read not caught: %v", errs)
	}
	for _, final := range []int64{19, 21} {
		if errs := checkCounter(counterHistory(20), final); len(errs) == 0 {
			t.Fatalf("final read %d of 20 acked adds not caught", final)
		}
	}
}

// kvHistory is a correct keyed history: on key k1, adds of 5, 7, 11 and
// gets of 0 and 12.
func kvHistory() []*record {
	var recs []*record
	prev := int64(0)
	for _, d := range []int64{5, 7, 11} {
		r := okAt(0, 1)
		r.key, r.kind, r.delta, r.prev = "k1", "add", d, prev
		prev += d
		recs = append(recs, r)
	}
	for _, v := range []int64{0, 12} {
		r := okAt(0, 1)
		r.key, r.kind, r.prev = "k1", "get", v
		recs = append(recs, r)
	}
	return recs
}

func TestCheckKVTeeth(t *testing.T) {
	finals := map[string]int64{"k1": 23}
	if errs := checkKV(kvHistory(), finals); len(errs) != 0 {
		t.Fatalf("correct history rejected: %v", errs)
	}
	recs := kvHistory()
	recs[1].prev = 6 // a corrupted prev breaks the chain
	if errs := checkKV(recs, finals); len(errs) == 0 || !recs[1].wrong {
		t.Fatalf("broken chain not caught: %v", errs)
	}
	recs = kvHistory()
	recs[4].prev = 13 // a corrupted get value
	if errs := checkKV(recs, finals); len(errs) == 0 || !recs[4].wrong {
		t.Fatalf("get of a non-chain value not caught: %v", errs)
	}
	if errs := checkKV(kvHistory(), map[string]int64{"k1": 22}); len(errs) == 0 {
		t.Fatal("wrong final read not caught")
	}
	// An add that never answered may have applied: a gap is then allowed,
	// but prevs still may not run backwards.
	recs = kvHistory()
	recs[2].prev = 30
	recs = append(recs, &record{request: request{key: "k1", kind: "add", delta: 18}})
	if errs := checkKV(recs, nil); len(errs) != 0 {
		t.Fatalf("gap after an unanswered add rejected: %v", errs)
	}
	recs[2].prev = 3
	if errs := checkKV(recs, nil); len(errs) == 0 {
		t.Fatal("prev running backwards not caught")
	}
}

func TestCheckFuzzTeeth(t *testing.T) {
	ref, err := parseReference(fuzzReference)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(buildPlans(corpusSeeds())) {
		t.Fatalf("reference has %d plans, corpus %d", len(ref), len(buildPlans(corpusSeeds())))
	}
	var plan explore.Plan
	for _, p := range buildPlans(corpusSeeds()) {
		if p.Target == "monitor-pair" && p.Seed == 1 {
			plan = p
		}
	}
	out, err := explore.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprint(out)
	if err := checkFuzz(ref, plan, got); err != nil {
		t.Fatalf("the plan's own execution disagrees with the reference: %v", err)
	}
	hash := out.TraceHash
	out.TraceHash = hash[:len(hash)-1] + "x"
	if checkFuzz(ref, plan, fingerprint(out)) == nil {
		t.Fatal("corrupted trace hash not caught")
	}
	out.TraceHash = hash
	out.Verdicts[0].OK = !out.Verdicts[0].OK
	if checkFuzz(ref, plan, fingerprint(out)) == nil {
		t.Fatal("flipped verdict not caught")
	}
	out.Verdicts[0].OK = !out.Verdicts[0].OK
	out.Verdicts[0].Detail += " "
	if checkFuzz(ref, plan, fingerprint(out)) == nil {
		t.Fatal("changed verdict detail not caught")
	}
}

func TestGeneratorDerivesFromSeed(t *testing.T) {
	spec := workloads["kv-zipf"].(serviceWorkload).gen
	seq := func(seed int64) []request {
		var ids atomic.Uint64
		g := newGenerator(spec, seed, &ids)
		var out []request
		for i := 0; i < 200; i++ {
			r := g.next()
			r.id = 0
			out = append(out, r)
		}
		return out
	}
	if !reflect.DeepEqual(seq(7), seq(7)) {
		t.Fatal("one seed gave two request sequences")
	}
	if reflect.DeepEqual(seq(7), seq(8)) {
		t.Fatal("two seeds gave one request sequence")
	}
	for _, r := range seq(7) {
		if r.kind == "add" && r.delta <= 0 {
			t.Fatalf("non-positive delta %d", r.delta)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, d)
		}
	}
	if strings.Join(doc.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v", doc.Command)
	}
}

func TestQuietRateShortLeg(t *testing.T) {
	var recs []*record
	for i := 0; i < 40; i++ {
		recs = append(recs, okAt(0, float64(10*i))) // 100/s for 400 ms
	}
	rate, wins := quietRate(recs, t0, 400*time.Millisecond)
	if len(wins) != 1 || math.Abs(rate-100) > 1e-9 {
		t.Fatalf("rate %v over %v, want 100/s over one window", rate, wins)
	}
}
