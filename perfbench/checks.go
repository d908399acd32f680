package main

import (
	"fmt"
	"sort"
)

// The output checks. Each marks the records whose answers cannot be right
// as wrong (so they count as failed and rank as +Inf) and returns one
// message per kind of violation; an empty result means the outputs hold.

// checkCounter checks a counter history whose adds all carry delta 1:
// acknowledged add prevs are distinct, every acknowledged read is at most
// the number of adds attempted, and the final read lies between the
// acknowledged and the attempted adds.
func checkCounter(recs []*record, final int64) []string {
	var errs []string
	var attempted, acked int64
	seen := map[int64]*record{}
	dups := 0
	for _, r := range recs {
		if r.kind != "add" {
			continue
		}
		attempted++
		if !r.ok {
			continue
		}
		acked++
		if _, dup := seen[r.prev]; dup {
			r.wrong = true
			dups++
			continue
		}
		seen[r.prev] = r
	}
	if dups > 0 {
		errs = append(errs, fmt.Sprintf("counter: %d acknowledged adds repeat another add's prev", dups))
	}
	high := 0
	for _, r := range recs {
		if r.ok && r.isRead() && r.prev > attempted {
			r.wrong = true
			high++
		}
	}
	if high > 0 {
		errs = append(errs, fmt.Sprintf("counter: %d reads exceed the %d adds attempted", high, attempted))
	}
	if final < acked || final > attempted {
		errs = append(errs, fmt.Sprintf("counter: final read %d outside [acked %d, attempted %d]", final, acked, attempted))
	}
	return errs
}

// checkKV checks a keyed history of adds (positive deltas) and gets. Per
// key, the acknowledged adds sorted by prev must form the chain
// prev[i+1] = prev[i] + delta[i] from 0, every acknowledged get must
// return a value of the chain, and the final read (finals[key]) must be
// the chain's end. On a key where some add may have taken effect without
// an answer the chain may have gaps; there prevs need only advance by at
// least each delta, and gets go unchecked.
func checkKV(recs []*record, finals map[string]int64) []string {
	type keyHist struct {
		adds, gets []*record
		unknown    bool
	}
	byKey := map[string]*keyHist{}
	for _, r := range recs {
		kh := byKey[r.key]
		if kh == nil {
			kh = &keyHist{}
			byKey[r.key] = kh
		}
		switch {
		case r.kind == "add" && r.ok:
			kh.adds = append(kh.adds, r)
		case r.kind == "add" && r.unknown():
			kh.unknown = true
		case r.kind == "get" && r.ok:
			kh.gets = append(kh.gets, r)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var errs []string
	for _, key := range keys {
		kh := byKey[key]
		sort.Slice(kh.adds, func(i, j int) bool { return kh.adds[i].prev < kh.adds[j].prev })
		values := map[int64]bool{0: true}
		want := int64(0)
		for _, r := range kh.adds {
			if r.prev != want && (!kh.unknown || r.prev < want) {
				r.wrong = true
				errs = append(errs, fmt.Sprintf("kv %s: add prev %d, want %d: no linearization of the adds exists", key, r.prev, want))
				continue
			}
			want = r.prev + r.delta
			values[want] = true
		}
		if kh.unknown {
			continue
		}
		for _, r := range kh.gets {
			if !values[r.prev] {
				r.wrong = true
				errs = append(errs, fmt.Sprintf("kv %s: get returned %d, not a value of the add chain", key, r.prev))
			}
		}
		if got, ok := finals[key]; ok && got != want {
			errs = append(errs, fmt.Sprintf("kv %s: final read %d, want chain end %d", key, got, want))
		}
	}
	return errs
}
