package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sloLimit is the latency budget a request must meet: the paper's
// no-delay bound for revocation checks on a page load (§4.3). Uploads
// are held to the same limit.
const sloLimit = 250 * time.Millisecond

// sample is one request as the load generator saw it. Times are offsets
// from the phase start; a failed request misses every latency limit.
type sample struct {
	due, start, end time.Duration
	failed          bool
}

// latency is the user-visible time: from when the request was due, so
// a stalled generator charges its backlog to the requests it delayed.
func (s sample) latency() time.Duration {
	if s.failed {
		return time.Duration(math.MaxInt64)
	}
	return s.end - s.due
}

func (s sample) lateness() time.Duration { return s.start - s.due }

// service is the time from sending to the answer.
func (s sample) service() time.Duration { return s.end - s.start }

// phase is the record of one load phase.
type phase struct {
	samples []sample
	elapsed time.Duration
	// offered is the scheduled rate (open loop) in requests per second;
	// zero for a closed loop.
	offered float64
}

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// completedPerS is the rate of successful completions over the phase.
func (p phase) completedPerS() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(len(p.samples)-p.failed()) / p.elapsed.Seconds()
}

// quantileMs returns the q-quantile (nearest rank) of f over the phase,
// in milliseconds; +Inf when the rank lands on a failed request.
func (p phase) quantileMs(q float64, f func(sample) time.Duration) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	d := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		d[i] = f(s)
	}
	return quantileMs(d, q)
}

func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	k := int(math.Ceil(q*float64(len(d)))) - 1
	if k < 0 {
		k = 0
	}
	if d[k] == time.Duration(math.MaxInt64) {
		return math.Inf(1)
	}
	return float64(d[k]) / float64(time.Millisecond)
}

// quantileUs is quantileMs for microsecond-scale layer spans.
func quantileUs(d []time.Duration, q float64) float64 { return quantileMs(d, q) * 1000 }

// chunkSize is the fewest requests a slice of a fixed-rate phase holds
// for the tail estimate, so each slice's p99 has ten samples beyond
// it; closedWindow is the window a closed phase is cut into for its
// rate.
const (
	chunkSize    = 1000
	maxChunks    = 10
	closedWindow = 250 * time.Millisecond
)

// sliceQuantilesMs cuts the phase into k consecutive equal slices and
// returns each slice's q-quantile latency.
func (p phase) sliceQuantilesMs(k int, q float64) []float64 {
	n := len(p.samples)
	per := make([]float64, k)
	for c := range per {
		part := phase{samples: p.samples[c*n/k : (c+1)*n/k]}
		per[c] = part.quantileMs(q, sample.latency)
	}
	return per
}

// chunkedQuantileMs is the median, over consecutive equal slices of the
// phase, of each slice's q-quantile latency. One slow second on a
// shared host moves one slice, not the estimate, so the tail of the
// system is read apart from the tail of the host.
func (p phase) chunkedQuantileMs(q float64) float64 {
	return median(p.sliceQuantilesMs(min(max(len(p.samples)/chunkSize, 1), maxChunks), q))
}

// typicalMs is the lower quartile, over the phase's one-second slices,
// of each slice's median latency. Contention from other tenants of a
// shared host comes in stretches of seconds and only ever raises
// latency, so the quieter slices track the stack itself; a change to
// the stack moves every slice alike.
func (p phase) typicalMs() float64 {
	per := p.sliceQuantilesMs(max(int(p.elapsed/time.Second), 1), 0.5)
	sort.Float64s(per)
	return per[len(per)/4]
}

// capacity is the 90th percentile, over the closed phase's 250 ms
// windows, of the successful completions per second in each. Contention
// from other tenants of a shared host only ever lowers a window's
// rate, so the upper windows track what the stack itself sustains.
func (p phase) capacity() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	n := max(int(p.elapsed/closedWindow), 1)
	w := p.elapsed / time.Duration(n)
	rates := make([]float64, n)
	for _, s := range p.samples {
		if i := int(s.end / w); !s.failed && i < n {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	sort.Float64s(rates)
	return rates[n*9/10]
}

// growing reports whether the generator fell further behind over the
// phase: the median lateness of the last third of requests exceeds the
// first third's by more than a tenth of the SLO. A backlog that keeps
// growing means the offered rate is above capacity even if the phase
// ended before latency crossed the limit; a tenth of the budget leaves
// room for a host's passing stall.
func (p phase) growing() bool {
	n := len(p.samples)
	if n < 6 {
		return false
	}
	third := func(lo, hi int) float64 {
		d := make([]time.Duration, 0, hi-lo)
		for _, s := range p.samples[lo:hi] {
			d = append(d, s.lateness())
		}
		return quantileMs(d, 0.5)
	}
	first, last := third(0, n/3), third(n-n/3, n)
	return last-first > float64(sloLimit/time.Millisecond)/10
}

// meetsSLO is the acceptance test for one offered rate.
func (p phase) meetsSLO() bool {
	return p.failed() == 0 &&
		p.quantileMs(0.99, sample.latency) <= float64(sloLimit/time.Millisecond) &&
		!p.growing()
}

// opFunc performs request i of a phase. It returns when the user saw
// the answer, or the zero time to mean "on return": an owner's revoke
// is answered at the ledger's acknowledgement even though the stream
// goes on to watch the revocation propagate.
type opFunc func(i int) (answered time.Time, err error)

func since(t0, at time.Time) time.Duration {
	if at.IsZero() {
		return time.Since(t0)
	}
	return at.Sub(t0)
}

// openLoop offers rate requests per second for dur, on workers
// goroutines that take the next due request in order. Requests are due
// at fixed intervals whether or not earlier ones have finished, so the
// count is rate×dur on any host; a worker that falls behind sends at
// once and the lateness is charged to the request.
func openLoop(rate float64, dur time.Duration, workers int, do opFunc) phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if d := due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				start := time.Since(t0)
				answered, err := do(i)
				samples[i] = sample{due: due, start: start, end: since(t0, answered), failed: err != nil}
			}
		}()
	}
	wg.Wait()
	return phase{samples: samples, elapsed: time.Since(t0), offered: rate}
}

// closedLoop runs workers goroutines that each send their next request
// as soon as the previous one answers, until dur has passed.
func closedLoop(dur time.Duration, workers int, do opFunc) phase {
	var (
		mu      sync.Mutex
		samples []sample
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				start := time.Since(t0)
				answered, err := do(i)
				local = append(local, sample{due: start, start: start, end: since(t0, answered), failed: err != nil})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return phase{samples: samples, elapsed: time.Since(t0)}
}

// Phase shares of --seconds for an untraced run: fixed-rate latency,
// closed-loop capacity, then the SLO rate search. A traced run spends
// tracePhaseShare untraced at the fixed rate and the same again traced.
const (
	fixedShare      = 0.40
	closedShare     = 0.40
	searchShare     = 0.20
	tracePhaseShare = 0.45
)

// capacityPhases measures what the stack sustains: its closed-loop
// capacity and the highest open-loop rate that meets the SLO.
func capacityPhases(seconds, workers int, do opFunc) (capacity, atSLO float64, phases []phase) {
	closed := closedLoop(secs(closedShare, seconds), workers, do)
	capacity = closed.capacity()
	atSLO, probes := rateSearch(capacity, secs(searchShare, seconds), workers, do)
	return capacity, atSLO, append([]phase{closed}, probes...)
}

// rateSearch finds the highest offered rate that meets the SLO. It
// walks down from the closed-loop capacity in steps of 5% of it — finer
// than the tenth the benchmark promises — and reports the first rate
// whose probe passes. Below half the capacity it halves the rate
// instead. The budget is sized for six probes; a slow host may take
// more, up to ten. It reports 0 when no probe passes.
func rateSearch(capacity float64, budget time.Duration, workers int, do opFunc) (best float64, probes []phase) {
	probeDur := budget / 6
	r := capacity
	for len(probes) < 10 {
		p := openLoop(r, probeDur, workers, do)
		probes = append(probes, p)
		if p.meetsSLO() {
			return r, probes
		}
		if r > 0.51*capacity {
			r -= 0.05 * capacity
		} else {
			r /= 2
		}
	}
	return 0, probes
}
