package main

import (
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one generated operation; the service sees only these.
type request struct {
	id      uint64
	kind    string // wire op kind: add or read (unkeyed), add or get (keyed)
	key     string // non-empty selects the keyed API
	replica int    // -1 lets the server route
	delta   int64
	slow    bool // routed to the untimely replica
}

func (r request) isRead() bool { return r.kind == "read" || r.kind == "get" }

// body is the request's JSON body for /v1/invoke or /v1/kv/invoke.
func (r request) body() []byte {
	b := make([]byte, 0, 96)
	b = append(b, '{')
	if r.key != "" {
		b = append(b, `"key":`...)
		b = strconv.AppendQuote(b, r.key)
		b = append(b, ',')
	}
	if r.replica >= 0 {
		b = append(b, `"replica":`...)
		b = strconv.AppendInt(b, int64(r.replica), 10)
		b = append(b, ',')
	}
	b = append(b, `"op":{"kind":`...)
	b = strconv.AppendQuote(b, r.kind)
	if r.delta != 0 {
		b = append(b, `,"delta":`...)
		b = strconv.AppendInt(b, r.delta, 10)
	}
	return append(b, "}}"...)
}

// record is a request with its outcome.
type record struct {
	request
	due, sent, done time.Time
	status          int     // HTTP status; 0 when no response arrived
	ok              bool    // 200 with "ok":true
	wrong           bool    // answered, but an output check rejected the answer
	prev            int64   // the response's value: an add's previous value, a read's value
	latencyUS       float64 // submit→complete inside the service, from the response
}

// good reports a request that succeeded with a correct answer.
func (r *record) good() bool { return r.ok && !r.wrong }

// refused reports admission or backpressure refusals (never applied).
func (r *record) refused() bool {
	return r.status == http.StatusServiceUnavailable || r.status == http.StatusTooManyRequests
}

// unknown reports a request that may or may not have taken effect: no
// response arrived, or a 200 that did not decode.
func (r *record) unknown() bool { return !r.ok && (r.status == 0 || r.status == http.StatusOK) }

// latency is the time from when the request was due to its answer, in
// ms; a request that did not succeed ranks as +Inf.
func (r *record) latency() float64 {
	if !r.good() {
		return failedLatency
	}
	return ms(r.done.Sub(r.due))
}

// weighted is one entry of an operation mix.
type weighted struct {
	kind   string
	weight int
}

// genSpec describes a request stream.
type genSpec struct {
	mix      []weighted
	keys     int     // > 0 selects the keyed API over keys k0..k{keys-1}
	zipf     float64 // key skew θ (> 1)
	replicas []int   // request i goes to replicas[i mod len]; nil lets the server route
	slow     int     // the untimely replica, -1 when none
}

// generator derives a request sequence from a seed: the same seed gives
// the same kinds, keys, deltas and replicas.
type generator struct {
	spec  genSpec
	rng   *rand.Rand
	zipf  *rand.Zipf
	total int
	i     int
	ids   *atomic.Uint64
}

func newGenerator(spec genSpec, seed int64, ids *atomic.Uint64) *generator {
	g := &generator{spec: spec, rng: rand.New(rand.NewSource(seed)), ids: ids}
	for _, w := range spec.mix {
		g.total += w.weight
	}
	if spec.keys > 0 {
		g.zipf = rand.NewZipf(g.rng, spec.zipf, 1, uint64(spec.keys-1))
	}
	return g
}

func (g *generator) next() request {
	pick := g.rng.Intn(g.total)
	r := request{id: g.ids.Add(1), replica: -1}
	for _, w := range g.spec.mix {
		if pick < w.weight {
			r.kind = w.kind
			break
		}
		pick -= w.weight
	}
	if g.zipf != nil {
		r.key = "k" + strconv.FormatUint(g.zipf.Uint64(), 10)
		if r.kind == "add" {
			r.delta = 1 + g.rng.Int63n(1000)
		}
	} else if r.kind == "add" {
		r.delta = 1
	}
	if rs := g.spec.replicas; rs != nil {
		r.replica = rs[g.i%len(rs)]
	}
	r.slow = g.spec.slow >= 0 && r.replica == g.spec.slow
	g.i++
	return r
}

// openLoop sends rate×dur requests from gen, request i due at start +
// i/rate whatever the service does. It returns once every request to a
// timely replica has ended; requests to the untimely replica run on until
// they end or the host closes, so read their records only after close.
func (h *host) openLoop(gen *generator, rate float64, dur time.Duration) []*record {
	n := int(rate*dur.Seconds() + 0.5)
	recs := make([]*record, n)
	period := time.Duration(float64(time.Second) / rate)
	var timely sync.WaitGroup
	start := time.Now()
	for i := range recs {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := &record{request: gen.next(), due: due}
		recs[i] = r
		slow := r.slow
		h.inflight.Add(1)
		if !slow {
			timely.Add(1)
		}
		go func() {
			defer h.inflight.Done()
			h.send(r)
			if !slow {
				timely.Done()
			}
		}()
	}
	timely.Wait()
	return recs
}

// closedLoop keeps one request in flight per generator until dur has
// passed, and returns every request sent and when the loop started.
func (h *host) closedLoop(gens []*generator, dur time.Duration) ([]*record, time.Time) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]*record, len(gens))
	var wg sync.WaitGroup
	for w, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := &record{request: g.next(), due: time.Now()}
				h.send(r)
				per[w] = append(per[w], r)
			}
		}()
	}
	wg.Wait()
	var out []*record
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out, start
}
