package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"staircase"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // how long the measured passes run
	smoke   bool    // tiny corpora, one short pass
	trace   bool    // the traced run: per-layer metrics instead of end-to-end ones
	// traceOut, if set, receives the traced run's spans as JSON.
	traceOut string
	// workdir holds the SCJ2 files; it lies inside the checkout.
	workdir string
}

const (
	// minPasses is the least number of measured passes.
	minPasses = 3
	// minQuietShare is the share of operations that must have run in
	// quiet windows for the timing metrics to count as resolved.
	minQuietShare = 0.05
)

// measured is one metric's value with the evidence behind it.
type measured struct {
	value float64
	// samples counts what the value summarises: quiet operations for
	// the timing metrics, set-ups, operations per pass, or 1.
	samples int
	// spread is the interquartile range / median of the set-ups or of
	// the per-pass values; 0 for pooled metrics and single counts.
	spread float64
}

// result is what one workload run reports.
type result struct {
	w          *workload
	scriptHash string
	nodes      int // corpus size
	passes     int
	attempted  int
	failed     int
	firstErr   error
	metrics    map[string]measured
	// classAtP50 and classAtP90 are the labels around the 50th and the
	// 90th latency percentile of the last measured pass: light and
	// heavy when the script's construction holds.
	classAtP50, classAtP90 class
	// quietShare is the share of the measured operations that ran in
	// quiet windows, the ones the timing metrics are computed over.
	quietShare float64
}

// counts are the work counters of the untimed count pass: the script's
// cycle run once, single-caller, through the library with the
// workload's limits, summing StepReport.Core over every step. Each
// distinct query runs once and counts as often as the cycle uses it;
// with stride > 1 only every stride-th query of the table is counted
// (serve_adhoc, whose table lists each family's instances by rising
// constant, so a stride samples every family evenly).
type counts struct {
	scanned, skipped, copied, result, pruned, returned float64
}

func countPass(d *staircase.Document, s *script, stride int) (counts, error) {
	uses := s.uses()
	var total counts
	for qi := 0; qi < len(s.queries); qi += stride {
		q := &s.queries[qi]
		p, err := d.Prepare(q.text, nil)
		if err != nil {
			return total, err
		}
		res, err := p.RunLimit(q.limit) // limit 0 evaluates fully
		if err != nil {
			return total, err
		}
		n := uses[qi]
		total.returned += n * float64(len(res.Nodes))
		for _, st := range res.Steps {
			total.scanned += n * float64(st.Core.Scanned)
			total.skipped += n * float64(st.Core.Skipped)
			total.copied += n * float64(st.Core.Copied)
			total.result += n * float64(st.Core.Result)
			total.pruned += n * float64(st.Core.PrunedSize)
		}
	}
	return total, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// classAt returns the label most of the pass's operations carry whose
// latency ranks within ten percentiles of the q-th (around the 90th:
// the slowest fifth), so that a few stragglers of the other class among
// them do not change it.
func (p *pass) classAt(s *script, ops []int32, q float64) class {
	idx := make([]int, 0, len(ops))
	for i, failed := range p.failed {
		if !failed {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return p.lat[idx[a]] < p.lat[idx[b]] })
	n := float64(len(idx))
	nHeavy, total := 0, 0
	for _, i := range idx[int((q-0.1)*n):int(math.Min(q+0.1, 1)*n)] {
		total++
		if s.queries[ops[i]].class == heavy {
			nHeavy++
		}
	}
	if 2*nHeavy > total {
		return heavy
	}
	return light
}

// runWorkload prepares, sets up and measures one workload.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	c, err := newCorpus(w.corpusMB(cfg.smoke), cfg.seed)
	if err != nil {
		return nil, err
	}
	s, err := w.buildScript(cfg.seed, c, cfg.smoke)
	if err != nil {
		return nil, err
	}

	// Untimed preparation: oracle digests, work counters, SCJ2 file.
	d0, err := c.load()
	if err != nil {
		return nil, err
	}
	if err := fillOracle(d0, s); err != nil {
		return nil, err
	}
	cnt, err := countPass(d0, s, w.countStride)
	if err != nil {
		return nil, err
	}
	if w.server {
		if err := c.writeSCJ2(d0, cfg.workdir); err != nil {
			return nil, err
		}
	}
	res := &result{w: w, scriptHash: s.hash(), nodes: d0.NumNodes(), metrics: map[string]measured{}}
	d0 = nil

	// Timed set-up, repeated; setup_s is the fastest, and the last
	// one's target is the one measured.
	reps := w.setups
	if cfg.smoke || cfg.trace {
		reps = 1
	}
	var tgt target
	var lib *libTarget
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		tgt, lib = nil, nil
		runtime.GC()
		t0 := time.Now()
		if w.server {
			tgt, err = setupServer(c, s, w)
		} else {
			lib, err = setupLibrary(c, s, w.cursor)
			tgt = lib
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if lib != nil {
		var cw countingWriter
		if err := lib.doc.WriteBinary(&cw); err != nil {
			return nil, err
		}
		c.scj2Bytes = cw.n
	}

	callers := make([]*caller, numCallers)
	for i := range callers {
		callers[i] = &caller{nodes: make([]int32, 0, 10000)}
	}
	passOps := len(s.passes[0])
	p := newPass(passOps)
	if cfg.trace {
		return res, tracedRun(res, cfg, c, s, tgt, callers, p, cnt)
	}

	xmlBytes := float64(len(c.xml))
	c.xml = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// A discarded warm-up, then measured passes, round-robin over the
	// cycle, until the measuring time is used up.
	warmUp(tgt, s, callers, p)
	var pool samples
	var alloc []float64
	var measuredFor time.Duration
	for res.passes < minPasses && !cfg.smoke || measuredFor.Seconds() < cfg.seconds {
		runtime.GC()
		ops := s.passes[res.passes%len(s.passes)]
		runPass(tgt, s, ops, callers, p, nil)
		pool.add(p)
		alloc = append(alloc, float64(p.allocBytes)/float64(passOps))
		measuredFor += p.wall
		res.passes++
		res.attempted += passOps
		res.failed += p.nFailed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
		if cfg.smoke {
			break
		}
	}
	lastOps := s.passes[(res.passes-1)%len(s.passes)] // p still holds the last pass
	res.classAtP50, res.classAtP90 = p.classAt(s, lastOps, 0.50), p.classAt(s, lastOps, 0.90)
	tm := pool.timing(numCallers, pool.fastest())
	res.quietShare = tm.quietShare

	timed := func(v float64) measured { return measured{value: v, samples: tm.quiet} }
	res.metrics["setup_s"] = measured{value: slices.Min(setups), samples: len(setups), spread: spread(setups)}
	res.metrics["latency_p50_us"] = timed(tm.p50)
	res.metrics["latency_p90_us"] = timed(tm.p90)
	res.metrics["throughput_ops_s"] = timed(tm.throughput)
	res.metrics["first_result_p50_us"] = timed(tm.firstP50)
	res.metrics["alloc_bytes_per_op"] = measured{value: median(alloc), samples: passOps, spread: spread(alloc)}
	res.metrics["touched_per_result"] = measured{value: cnt.scanned / cnt.returned, samples: s.numOps() / w.countStride}
	res.metrics["heap_live_mb"] = measured{value: float64(ms.HeapAlloc) / (1 << 20), samples: 1}
	res.metrics["stored_bytes_per_xml_byte"] = measured{value: float64(c.scj2Bytes) / xmlBytes, samples: 1}
	return res, nil
}

// warmUp runs the cycle once, discarded. A cycle of several passes
// leaves out the pass measured first: the others fill the server's
// caches just as well, and its queries then arrive as they do in every
// later round, not seen for a whole cycle.
func warmUp(tgt target, s *script, callers []*caller, p *pass) {
	warm := s.passes
	if len(warm) > 1 {
		warm = warm[1:]
	}
	for _, ops := range warm {
		runPass(tgt, s, ops, callers, p, nil)
	}
}

// serverCounters reads GET /metrics through the handler.
func serverCounters(t *httpTarget, c *caller) (map[string]float64, error) {
	if _, _, err := t.post(urlMetrics, nil, c); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(c.rw.body.Bytes()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
			m[strings.TrimPrefix(name, "xpathd_")] = v
		}
	}
	return m, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedPasses is how many reference and traced passes a traced run
// alternates.
const tracedPasses = 3

// tracedRun is the second half of a --trace 1 run: a warm-up cycle,
// untraced reference passes alternating with traced passes that record
// spans around every call into the system, then the layer replays. It
// fills res.metrics with every per-layer metric; layers the workload
// never enters stay 0.
func tracedRun(res *result, cfg runConfig, c *corpus, s *script, tgt target, callers []*caller, p *pass, cnt counts) error {
	w := res.w
	l := &layers{tr: newTracer(), m: map[string]float64{}}
	for _, def := range perLayer {
		l.m[def.name] = 0
	}
	srv, _ := tgt.(*httpTarget)

	warmUp(tgt, s, callers, p)
	var reference, traced samples
	var ops []int32        // the last traced pass, whose operations p holds afterwards
	var allocPerOp float64 // of the last reference pass: the tracer allocates too
	delta := map[string]float64{}
	var after map[string]float64
	for i := 0; i < tracedPasses; i++ {
		runtime.GC()
		runPass(tgt, s, s.passes[2*i%len(s.passes)], callers, p, nil)
		reference.add(p)
		allocPerOp = float64(p.allocBytes) / float64(len(p.lat))

		var before map[string]float64
		var err error
		if srv != nil {
			if before, err = serverCounters(srv, callers[0]); err != nil {
				return err
			}
		}
		runtime.GC()
		ops = s.passes[(2*i+1)%len(s.passes)]
		runPass(tgt, s, ops, callers, p, l.tr)
		traced.add(p)
		res.passes++
		res.attempted += len(ops)
		res.failed += p.nFailed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
		if srv != nil {
			if after, err = serverCounters(srv, callers[0]); err != nil {
				return err
			}
			for name, v := range after {
				delta[name] += v - before[name]
			}
		}
	}
	fastest := math.Min(reference.fastest(), traced.fastest())
	tm := traced.timing(numCallers, fastest)
	res.quietShare = tm.quietShare
	l.m["loadgen.latency_p99_us"] = tm.p99
	l.m["trace.overhead_frac"] = 1 - ratio(tm.throughput, reference.timing(numCallers, fastest).throughput)

	if srv != nil {
		queries, hits, misses := delta["queries_total"], delta["cache_hits_total"], delta["cache_misses_total"]
		l.m["server.result_cache_hit_frac"] = ratio(hits, hits+misses)
		l.m["server.plan_cache_hit_frac"] = ratio(delta["plan_cache_hits_total"], delta["plan_cache_hits_total"]+delta["plan_cache_misses_total"])
		l.m["server.cache_entries"] = after["cache_entries"]
		l.m["server.shed_frac"] = ratio(delta["shed_queries_total"], queries)
		l.m["server.timeout_frac"] = ratio(delta["timeout_queries_total"], queries)
		l.m["server.error_frac"] = ratio(delta["errors_total"], queries)
		l.m["share.coalesced_frac"] = ratio(delta["coalesced_queries_total"], queries)
		l.m["share.flights_per_miss"] = ratio(delta["shared_flights_total"], misses)
		hitMetrics(l.m, s, ops, p, fastest, allocPerOp)
	}

	// Layer replays.
	d, err := l.storage(c)
	if err != nil {
		return err
	}
	l.m["core.scanned_per_result"] = ratio(cnt.scanned, cnt.result)
	l.m["core.skipped_frac"] = ratio(cnt.skipped, cnt.scanned+cnt.skipped)
	l.m["core.copied_frac"] = ratio(cnt.copied, cnt.scanned)
	l.m["core.work_bound_ratio"] = ratio(cnt.scanned, cnt.pruned+cnt.result)
	var sample []int32
	for i := 0; i < len(s.queries); i += w.replayStride {
		sample = append(sample, int32(i))
	}
	if w.server {
		if d, err = l.catalog(c); err != nil {
			return err
		}
	}
	if !w.prime { // a primed workload only hits the result cache and enters no query layer
		costs, err := l.queries(d, s, sample, replayMode{frontend: w.server, cursor: w.cursor})
		if err != nil {
			return err
		}
		if w.server {
			if err := l.misses(c, s, sample, costs, w.cacheBytes); err != nil {
				return err
			}
		}
	}

	for _, def := range perLayer {
		res.metrics[def.name] = measured{value: l.m[def.name], samples: 1}
	}
	if cfg.traceOut != "" {
		return l.tr.write(cfg.traceOut)
	}
	return nil
}

// hitMetrics derives the warm-path server metrics from the quiet
// operations of the last traced pass: the median latency of each class, the
// slope of latency over result size (the encoder's cost per node), the
// first chunk of a stream; allocation per request comes from the last
// untraced reference pass.
func hitMetrics(m map[string]float64, s *script, ops []int32, p *pass, fastest, allocPerOp float64) {
	byQuery := make([][]float64, len(s.queries))
	var small, large, firstChunk []float64
	for i, qi := range ops {
		if p.failed[i] || p.score[i] > quietWithin*fastest {
			continue
		}
		byQuery[qi] = append(byQuery[qi], p.lat[i])
		q := &s.queries[qi]
		if q.class == light {
			small = append(small, p.lat[i])
		} else {
			large = append(large, p.lat[i])
		}
		if q.stream {
			firstChunk = append(firstChunk, p.first[i])
		}
	}
	m["server.alloc_bytes_per_hit"] = allocPerOp
	if len(firstChunk) > 0 { // serve_adhoc: these are misses, not hits
		m["server.stream_first_chunk_us"] = median(firstChunk)
		return
	}
	m["server.hit_small_us"] = median(small)
	m["server.hit_large_us"] = median(large)
	var size, lat []float64
	for qi, xs := range byQuery {
		if len(xs) > 0 {
			size = append(size, float64(s.queries[qi].want.count))
			lat = append(lat, median(xs))
		}
	}
	m["server.encode_ns_per_node"] = slope(size, lat) * 1e3
}

// misses replays the server's miss path on a fresh server: each
// sampled query once cold (parse, compile, run, cache insert) and once
// more with noCache (plan cached, result cache bypassed). The self
// time of a miss is the handler span minus the parse, build, compile
// and run spans the query replays recorded for the same query.
func (l *layers) misses(c *corpus, s *script, sample []int32, costs map[int32]queryCost, cacheBytes int64) error {
	h, err := newServer(c, cacheBytes)
	if err != nil {
		return err
	}
	t := &httpTarget{h: h}
	cl := &caller{tr: l.tr}
	if _, _, err := t.post(urlQuery, requestBody(&query{text: probeQuery}, true), cl); err != nil {
		return err
	}
	var miss, planHit, self []float64
	for _, qi := range sample {
		q := &s.queries[qi]
		u := urlQuery
		if q.stream {
			u = urlStream
		}
		cl.op = l.tr.beginOp("replay:miss", qi)
		_, cold, err := t.post(u, requestBody(q, false), cl)
		if err != nil {
			return err
		}
		_, warm, err := t.post(u, requestBody(q, true), cl)
		if err != nil {
			return err
		}
		l.tr.end(cl.op)
		cost := costs[qi]
		miss = append(miss, micros(cold))
		planHit = append(planHit, micros(warm))
		self = append(self, micros(cold)-cost.parse-cost.build-cost.compile-cost.run)
	}
	l.m["server.miss_us"] = median(miss)
	l.m["server.plan_hit_us"] = median(planHit)
	l.m["server.miss_self_us"] = median(self)
	return nil
}
