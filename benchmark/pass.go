package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box is a two-vCPU VM on a shared host. Whenever a
// neighbour occupies the sibling hardware thread of one of its cores,
// throughput-bound code on that core runs 1.6-1.9 times slower, for
// seconds to minutes at a time and independently of the other core; a
// latency-bound dependency chain does not notice. No average over such
// a machine repeats. So every caller brackets each short window of
// operations with a fixed calibration loop, and the timing metrics are
// computed over the operations of quiet windows only: those whose two
// calibrations both ran within quietWithin of the fastest calibration
// of the whole run. The values stay as measured; the calibration only
// decides which measurements were taken on an undisturbed core.
const (
	// quietWindow is how long a caller runs operations between two
	// calibrations.
	quietWindow = 20 * time.Millisecond
	// quietWithin is how much slower than the run's fastest calibration
	// a window's calibrations may be for the window to count as quiet.
	// On the reference box an undisturbed core repeats the calibration
	// within 8 %; a disturbed one takes at least 1.6 times as long.
	quietWithin = 1.15
	// calibRounds sums calibCol this many times: about 180 µs, 1 % of
	// a window.
	calibRounds = 128
)

// calibCol is the column the calibration loop sums. Its 16 KB stay in
// L1, so the loop is throughput-bound on the core's own resources and
// sees neither the operations' cache footprint nor memory traffic.
var calibCol = make([]int32, 4<<10)

func sumCol(col []int32) (sum int64) {
	for _, v := range col {
		sum += int64(v)
	}
	return sum
}

// calibrate runs the fixed calibration loop, after one untimed round
// that brings the column back into L1, and returns its time in ns.
func (c *caller) calibrate() float64 {
	c.sink += sumCol(calibCol)
	t0 := time.Now()
	for r := 0; r < calibRounds; r++ {
		c.sink += sumCol(calibCol)
	}
	return float64(time.Since(t0).Nanoseconds())
}

// pass holds what one pass over the script measured.
type pass struct {
	// lat and first are per-operation times in µs and score the
	// calibration time (the slower of the two around the operation's
	// window, in ns), all indexed like the pass's operations. A failed
	// operation is marked in failed and contributes no sample.
	lat, first, score []float64
	failed            []bool
	nFailed           int
	firstErr          error
	// wall is the longest caller's time inside operations.
	wall       time.Duration
	allocBytes uint64
}

func newPass(n int) *pass {
	return &pass{lat: make([]float64, n), first: make([]float64, n), score: make([]float64, n), failed: make([]bool, n)}
}

// runPass executes one pass of the script, closed-loop: each caller
// takes the next operation as soon as its previous one has completed
// and been checked. tr is nil except on the traced pass.
func runPass(t target, s *script, ops []int32, callers []*caller, p *pass, tr *tracer) {
	p.nFailed, p.firstErr, p.wall = 0, nil, 0
	var next atomic.Int64
	var mu sync.Mutex // guards nFailed, firstErr, wall
	var wg sync.WaitGroup
	alloc0 := totalAlloc()
	for _, c := range callers {
		c.tr = tr
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			var busy time.Duration
			var window []int // operations since the last calibration
			before, opened := c.calibrate(), time.Now()
			closeWindow := func() {
				after := c.calibrate()
				for _, i := range window {
					p.score[i] = math.Max(before, after)
				}
				window, before, opened = window[:0], after, time.Now()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				qi := ops[i]
				q := &s.queries[qi]
				c.op = c.tr.beginOp(q.class.String(), int32(i))
				first, total, got, err := t.run(q, qi, c)
				c.tr.end(c.op)
				if err == nil {
					err = q.check(got)
				}
				busy += total
				p.failed[i] = err != nil
				if err != nil {
					mu.Lock()
					p.nFailed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					mu.Unlock()
					continue
				}
				p.lat[i] = float64(total.Nanoseconds()) / 1e3
				p.first[i] = float64(first.Nanoseconds()) / 1e3
				window = append(window, i)
				if time.Since(opened) >= quietWindow {
					closeWindow()
				}
			}
			closeWindow()
			mu.Lock()
			if busy > p.wall {
				p.wall = busy
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.allocBytes = totalAlloc() - alloc0
}

// samples pools the successful operations of several passes.
type samples struct {
	lat, first, score []float64
}

func (sm *samples) add(p *pass) {
	for i, failed := range p.failed {
		if !failed {
			sm.lat = append(sm.lat, p.lat[i])
			sm.first = append(sm.first, p.first[i])
			sm.score = append(sm.score, p.score[i])
		}
	}
}

// fastest is the run's fastest calibration, the reference for "quiet":
// the 1st percentile of the operations' scores, so that the rare
// calibration that ran faster than an undisturbed core sustains (the
// other caller had just gone idle) does not set the bar.
func (sm *samples) fastest() float64 {
	sc := append([]float64(nil), sm.score...)
	sort.Float64s(sc)
	return percentile(sc, 0.01)
}

// timing are the timing metrics of a set of samples.
type timing struct {
	p50, p90, p99, firstP50 float64 // µs
	throughput              float64 // ops/s, all callers
	quiet                   int     // operations measured in quiet windows
	quietShare              float64 // their share of all successful operations
}

// timing computes the metrics over the operations measured within
// quietWithin of the fastest calibration. Throughput is what callers
// closed-loop callers complete per second at the quiet operations'
// mean latency.
func (sm *samples) timing(callers int, fastest float64) timing {
	var lat, first []float64
	var busy float64
	for i, sc := range sm.score {
		if sc <= quietWithin*fastest {
			lat = append(lat, sm.lat[i])
			first = append(first, sm.first[i])
			busy += sm.lat[i]
		}
	}
	if len(lat) == 0 {
		return timing{}
	}
	sort.Float64s(lat)
	sort.Float64s(first)
	return timing{
		p50:        percentile(lat, 0.50),
		p90:        percentile(lat, 0.90),
		p99:        percentile(lat, 0.99),
		firstP50:   percentile(first, 0.50),
		throughput: float64(callers) * float64(len(lat)) / (busy / 1e6),
		quiet:      len(lat),
		quietShare: float64(len(lat)) / float64(len(sm.lat)),
	}
}
