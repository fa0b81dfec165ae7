package main

import (
	"sync"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	start, end time.Time
	batch      []ids.PhotoID      // StatusBatch: the requested identifiers
	id         ids.PhotoID        // Status, Claim or Apply target
	sig        []byte             // Apply signature
	claim      *wire.ClaimRequest // Claim request
	bytes      int                // FilterSync payload size
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory until the traced phase ends.
type recorder struct {
	mu          sync.Mutex
	statusBatch []span
	status      []span
	claims      []span
	filterSync  []span
}

func (r *recorder) add(dst *[]span, s span) {
	r.mu.Lock()
	*dst = append(*dst, s)
	r.mu.Unlock()
}

// timedService wraps a ledger Service, timing the calls a layer above
// makes into it. It is registered in a proxy's or aggregator's
// wire.Directory in place of the plain client for the traced phase.
type timedService struct {
	wire.Service
	rec *recorder
}

// StatusBatch implements wire.Service.
func (t *timedService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	start := time.Now()
	p, err := t.Service.StatusBatch(batch)
	end := time.Now()
	t.rec.add(&t.rec.statusBatch, span{start: start, end: end, batch: append([]ids.PhotoID(nil), batch...)})
	return p, err
}

// Status implements wire.Service.
func (t *timedService) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	start := time.Now()
	p, err := t.Service.Status(id)
	t.rec.add(&t.rec.status, span{start: start, end: time.Now(), id: id})
	return p, err
}

// Claim implements wire.Service.
func (t *timedService) Claim(req *wire.ClaimRequest) (ledger.Receipt, error) {
	start := time.Now()
	r, err := t.Service.Claim(req)
	end := time.Now()
	cp := *req
	t.rec.add(&t.rec.claims, span{start: start, end: end, claim: &cp, id: r.ID})
	return r, err
}

// FilterSync implements wire.Service.
func (t *timedService) FilterSync(from uint64, baseHash []byte) ([]byte, uint64, error) {
	start := time.Now()
	p, latest, err := t.Service.FilterSync(from, baseHash)
	t.rec.add(&t.rec.filterSync, span{start: start, end: time.Now(), bytes: len(p)})
	return p, latest, err
}

// timeCall runs fn and returns how long it took.
func timeCall(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// spread picks at most k items evenly from n, so replays stay bounded
// however long the traced phase ran.
func spread(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}
