package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// class labels an operation by construction: every script is 80 %
// light and 20 % heavy, and the heavy class costs at least five times
// the light one, so the 50th latency percentile falls inside the
// light class and the 90th in the middle of the heavy class.
type class uint8

const (
	light class = iota
	heavy
)

func (c class) String() string {
	if c == heavy {
		return "heavy"
	}
	return "light"
}

// query is one distinct operation of a script and the key of the
// oracle: the query text plus how it is executed.
type query struct {
	text string
	// limit is the cursor's k on stream_first_k and the request's
	// "limit" on the server workloads; 0 asks for the full result.
	limit int
	// stream sends the query to POST /stream instead of POST /query.
	stream bool
	class  class
	// parts is the query's share of a pass, in units of the mix's total.
	parts int
	// family and constant identify a serve_adhoc template instance for
	// the family oracle; family is nil elsewhere.
	family   *family
	constant float64
	// want is the oracle digest, filled during preparation.
	want digest
}

// script is a workload's fixed, seed-determined sequence of
// operations over a table of distinct queries. It is a cycle of one or
// more passes, each holding the exact 80/20 mix; the measured passes
// walk the cycle round-robin. Three workloads repeat a single pass;
// serve_adhoc cycles through six passes of different queries so that a
// query only recurs after more distinct ones than any server cache
// holds.
type script struct {
	queries []query
	passes  [][]int32 // per pass: indices into queries, in execution order
}

// newScript lays out one pass of passOps operations in proportion to
// each query's parts and shuffles it with the seed, so a pass holds
// exactly the same multiset of operations whatever the seed and only
// their order (and the seeded constants inside the texts) changes.
func newScript(queries []query, passOps int, rng *rand.Rand) (*script, error) {
	total := 0
	for _, q := range queries {
		total += q.parts
	}
	if total == 0 || passOps%total != 0 {
		return nil, fmt.Errorf("script: %d ops per pass is not a multiple of the mix total %d", passOps, total)
	}
	ops := make([]int32, 0, passOps)
	for i, q := range queries {
		for n := q.parts * (passOps / total); n > 0; n-- {
			ops = append(ops, int32(i))
		}
	}
	shuffle(ops, rng)
	return &script{queries: queries, passes: [][]int32{ops}}, nil
}

func shuffle(ops []int32, rng *rand.Rand) {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// numOps is the operation count of the whole cycle.
func (s *script) numOps() int {
	n := 0
	for _, ops := range s.passes {
		n += len(ops)
	}
	return n
}

// uses counts how often the cycle runs each distinct query.
func (s *script) uses() []float64 {
	n := make([]float64, len(s.queries))
	for _, ops := range s.passes {
		for _, qi := range ops {
			n[qi]++
		}
	}
	return n
}

// hash identifies the script's byte-exact content: every operation in
// order with its text, limit, endpoint and class.
func (s *script) hash() string {
	h := fnv.New64a()
	for _, ops := range s.passes {
		for _, i := range ops {
			q := &s.queries[i]
			fmt.Fprintf(h, "%s\x00%d\x00%t\x00%d\n", q.text, q.limit, q.stream, q.class)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// step builds the two-step path /descendant::a/<axis>::b.
func step(a, axis, b string) string {
	return "/descendant::" + a + "/" + axis + "::" + b
}

// axesBatchQueries is the axes_batch mix (100 parts): two-step
// name-test paths on all four partitioning axes as the light class,
// document-wide scans (which run the full-document kernels of all four
// axes) as the heavy class. The parts put the 50th
// percentile inside the 12-part open_auction/bidder block and the 90th
// inside the 12-part text()/ancestor::node() block when the queries
// are ordered by cost, so neither sits on a boundary between two
// queries.
func axesBatchQueries() []query {
	return []query{
		{text: step("education", "preceding", "interest"), class: light, parts: 8},
		{text: step("closed_auction", "preceding", "seller"), class: light, parts: 8},
		{text: step("seller", "following", "bidder"), class: light, parts: 8},
		{text: step("profile", "descendant", "education"), class: light, parts: 8},
		{text: step("keyword", "ancestor", "listitem"), class: light, parts: 12},
		{text: step("open_auction", "descendant", "bidder"), class: light, parts: 12},
		{text: step("keyword", "preceding", "text()"), class: light, parts: 8},
		{text: step("increase", "ancestor", "bidder"), class: light, parts: 8},
		{text: step("bidder", "descendant", "increase"), class: light, parts: 8},
		{text: "//item//text()/following::keyword", class: heavy, parts: 2},
		{text: step("person", "preceding", "*"), class: heavy, parts: 1},
		{text: step("category", "following", "node()"), class: heavy, parts: 1},
		{text: step("text()", "ancestor", "node()"), class: heavy, parts: 12},
		{text: "/descendant::node()", class: heavy, parts: 4},
	}
}

// streamFirstKQueries is the stream_first_k mix (100 parts): the same
// kind of plans opened as cursors. Light operations stop after k = 10
// nodes, which the first batch answers; heavy ones either pull
// k = 10 000 nodes from a wide path or need real work before their
// first hit (a predicate path, a following step from a late context).
func streamFirstKQueries() []query {
	const k, wide = 10, 10000
	return []query{
		{text: step("open_auction", "descendant", "bidder"), limit: k, class: light, parts: 8},
		{text: step("keyword", "ancestor", "listitem"), limit: k, class: light, parts: 8},
		{text: step("interest", "ancestor", "person"), limit: k, class: light, parts: 8},
		{text: step("text()", "ancestor", "node()"), limit: k, class: light, parts: 8},
		{text: step("bidder", "descendant", "increase"), limit: k, class: light, parts: 24},
		{text: step("increase", "ancestor", "bidder"), limit: k, class: light, parts: 8},
		{text: step("profile", "descendant", "education"), limit: k, class: light, parts: 8},
		{text: step("education", "preceding", "interest"), limit: k, class: light, parts: 8},
		{text: step("seller", "following", "bidder"), limit: k, class: heavy, parts: 2},
		{text: "//person[profile/education]", limit: k, class: heavy, parts: 2},
		{text: step("text()", "ancestor", "node()"), limit: wide, class: heavy, parts: 12},
		{text: step("increase", "ancestor", "bidder"), limit: wide, class: heavy, parts: 2},
		{text: "//item//text()/following::keyword", limit: k, class: heavy, parts: 2},
	}
}

// hotLightPairs are parent/child tag pairs of the XMark vocabulary;
// serve_hot asks for the first ten nodes of each.
var hotLightPairs = [36][2]string{
	{"person", "name"}, {"person", "emailaddress"}, {"person", "phone"}, {"person", "address"},
	{"address", "city"}, {"address", "country"}, {"address", "zipcode"}, {"address", "street"},
	{"person", "profile"}, {"profile", "interest"}, {"profile", "gender"}, {"profile", "business"},
	{"profile", "age"}, {"person", "watches"}, {"watches", "watch"}, {"open_auction", "initial"},
	{"open_auction", "reserve"}, {"open_auction", "current"}, {"open_auction", "itemref"}, {"open_auction", "seller"},
	{"open_auction", "annotation"}, {"annotation", "author"}, {"annotation", "description"}, {"annotation", "happiness"},
	{"open_auction", "quantity"}, {"open_auction", "type"}, {"open_auction", "interval"}, {"interval", "start"},
	{"interval", "end"}, {"closed_auction", "buyer"}, {"closed_auction", "price"}, {"closed_auction", "date"},
	{"item", "location"}, {"item", "payment"}, {"item", "shipping"}, {"mail", "from"},
}

// serveHotQueries is the serve_hot mix (960 parts): 64 hot queries,
// all resident in the result cache after priming. The 48 light ones
// return at most ten nodes (36 limited paths, 12 seeded id look-ups);
// the 16 heavy ones return cached results from about 2 000 to 20 000
// nodes on the big corpus, with the two middle sizes carrying most of
// the heavy class so that the 90th percentile sits on them.
func serveHotQueries(rng *rand.Rand, c *corpus) []query {
	var qs []query
	for _, p := range hotLightPairs {
		qs = append(qs, query{text: step(p[0], "descendant", p[1]), limit: 10, class: light, parts: 16})
	}
	for i := 0; i < 6; i++ {
		qs = append(qs,
			query{text: fmt.Sprintf("/descendant::person[@id = 'person%d']/name", rng.Intn(c.people)), class: light, parts: 16},
			query{text: fmt.Sprintf("/descendant::open_auction[@id = 'open_auction%d']/bidder/increase", rng.Intn(c.auctions)), class: light, parts: 16})
	}
	smaller := []string{
		step("profile", "descendant", "education"), step("interest", "ancestor", "person"),
		step("closed_auction", "descendant", "price"), step("keyword", "ancestor", "listitem"),
		step("person", "descendant", "interest"), step("open_auction", "descendant", "initial"),
		"//item//text()/following::keyword",
	}
	middle := []string{step("closed_auction", "preceding", "seller"), step("annotation", "descendant", "happiness")}
	larger := []string{
		step("person", "descendant", "emailaddress"), step("item", "descendant", "incategory"),
		step("increase", "ancestor", "bidder"), step("bidder", "descendant", "increase"),
		step("seller", "following", "bidder"), step("open_auction", "descendant", "personref"),
		step("keyword", "ancestor", "node()"),
	}
	for _, t := range smaller {
		qs = append(qs, query{text: t, class: heavy, parts: 6})
	}
	for _, t := range middle {
		qs = append(qs, query{text: t, class: heavy, parts: 54})
	}
	for _, t := range larger {
		qs = append(qs, query{text: t, class: heavy, parts: 6})
	}
	return qs
}

// family is a serve_adhoc query template
//
//	base-with-predicate [key op C] rest-of-predicates tail
//
// instantiated with a seeded constant C. The pieces are kept apart so
// the oracle can evaluate the constant-free parts once through the
// legacy interpreter and derive every instance from them.
type family struct {
	pre, key, op, post, tail string
	// lo and hi bound the constant, in hundredths.
	lo, hi int
	class  class
	stream bool
}

func (f *family) text(c float64) string {
	return fmt.Sprintf("%s[%s %s %.2f]%s%s", f.pre, f.key, f.op, c, f.post, f.tail)
}

// base is the family's query without the varying predicate.
func (f *family) base() string { return f.pre + f.post }

// adhocFamilies are the serve_adhoc templates. Light instances are
// selective value or existential predicates answered by POST /query;
// heavy ones are wide paths behind a varying predicate, streamed
// without a limit, that return thousands of nodes in chunks.
var adhocFamilies = []*family{
	{pre: "//open_auction", key: "initial", op: ">", tail: "/bidder/increase", lo: 44000, hi: 50000, class: light},
	{pre: "//closed_auction", key: "price", op: "<", tail: "/seller", lo: 200, hi: 6200, class: light},
	{pre: "//open_auction", key: "current", op: ">", post: "[reserve]", tail: "/seller", lo: 44000, hi: 50000, class: light},
	{pre: "//open_auction[quantity = 2]", key: "initial", op: ">", post: "[bidder]", tail: "/itemref", lo: 44000, hi: 50000, class: light},
	{pre: "//open_auction", key: "initial", op: ">", tail: "/bidder/*", lo: 2000, hi: 20000, class: heavy, stream: true},
	{pre: "//open_auction", key: "current", op: "<", tail: "/descendant::*", lo: 30000, hi: 48000, class: heavy, stream: true},
	{pre: "//closed_auction", key: "price", op: ">", tail: "/descendant::*", lo: 2000, hi: 20000, class: heavy, stream: true},
	{pre: "//person", key: "profile/@income", op: ">", tail: "/*", lo: 1000000, hi: 3000000, class: heavy, stream: true},
}

// adhocCycle is the number of passes in serve_adhoc's cycle: with
// 1024 operations per pass the cycle holds 6144 distinct queries, more
// than the server's prepared-plan LRU (4096) and compiled-query LRU
// (1024), so under LRU a cyclic walk never hits.
const adhocCycle = 6

// serveAdhocScript instantiates adhocCycle passes of passOps
// semantically distinct queries each. Every family cuts its hundredths
// grid into one stratum per instance and draws one constant from each,
// so no two instances compare against the same number and every seed
// covers the family's range — and with it the spread of result sizes —
// evenly. Instances are dealt round-robin over the passes.
func serveAdhocScript(rng *rand.Rand, passOps int) (*script, error) {
	perLight := (passOps*4/5 + 3) / 4
	perHeavy := (passOps - 4*perLight) / 4
	if 4*(perLight+perHeavy) != passOps {
		return nil, fmt.Errorf("script: serve_adhoc cannot split %d ops over its families", passOps)
	}
	s := &script{passes: make([][]int32, adhocCycle)}
	for _, f := range adhocFamilies {
		n := perLight * adhocCycle
		if f.class == heavy {
			n = perHeavy * adhocCycle
		}
		stratum := (f.hi - f.lo) / n
		if stratum < 2 {
			return nil, fmt.Errorf("script: family %s has only %d constants for %d instances", f.base(), f.hi-f.lo, n)
		}
		for j := 0; j < n; j++ {
			c := float64(f.lo+j*stratum+rng.Intn(stratum)) / 100
			s.passes[j%adhocCycle] = append(s.passes[j%adhocCycle], int32(len(s.queries)))
			s.queries = append(s.queries, query{text: f.text(c), stream: f.stream, class: f.class, parts: 1, family: f, constant: c})
		}
	}
	for _, ops := range s.passes {
		shuffle(ops, rng)
	}
	return s, nil
}
