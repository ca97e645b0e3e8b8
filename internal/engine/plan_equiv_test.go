package engine

// Differential property suite for the plan compiler: for randomly
// generated documents and randomly generated queries — covering every
// axis, the node-test kinds, predicate forms (existential, compare,
// positional, not/and/or) and the NoIndex, Pushdown and NoReorder
// knobs — the plan pipeline (build → rewrite → compile →
// execute) must produce exactly the node sequence of the reference
// evaluator (Options.LegacyEval). Run under -race in CI, this also
// exercises concurrent plan execution over one shared engine.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/plan"
	"staircase/internal/xpath"
)

func init() {
	// Assert executor invariants (e.g. the PosFilter sort-decay
	// monotonicity) throughout the differential suite.
	plan.EnableInvariantChecks(true)
}

// prepare compiles a query into a plan over the engine's document, the
// way the root package's Document.Prepare does.
func prepare(e *Engine, q string, opts *Options) (*plan.Plan, error) {
	po := PlanOptions(opts)
	return plan.Prepare(e.Env(), q, &po)
}

// drainPlan runs a plan through the streaming cursor executor to
// exhaustion.
func drainPlan(p *plan.Plan) ([]int32, error) {
	cur, err := p.CursorRoot(context.Background())
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []int32
	for {
		b, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b...)
	}
}

// checkStreaming pins the cursor executor to the legacy result: a full
// drain must be byte-identical, and RunLimit(k) must return exactly
// the k-prefix with a consistent Truncated report.
func checkStreaming(t *testing.T, e *Engine, q string, opts *Options, want []int32) {
	t.Helper()
	p, err := prepare(e, q, opts)
	if err != nil {
		t.Errorf("prepare %s %+v: %v", q, *opts, err)
		return
	}
	got, err := drainPlan(p)
	if err != nil {
		t.Errorf("cursor drain %s %+v: %v", q, *opts, err)
		return
	}
	if !eq32(got, want) {
		t.Errorf("cursor drain != legacy for %s under %+v:\n got %v\nwant %v", q, *opts, got, want)
		return
	}
	// A deterministic pseudo-random limit in [1, len(want)+2].
	lim := 1 + (len(q)*7+len(want)*3)%(len(want)+2)
	lr, err := p.RunLimitRoot(context.Background(), lim)
	if err != nil {
		t.Errorf("RunLimit(%d) %s %+v: %v", lim, q, *opts, err)
		return
	}
	wantPrefix := want
	if lim < len(want) {
		wantPrefix = want[:lim]
	}
	if !eq32(lr.Nodes, wantPrefix) {
		t.Errorf("RunLimit(%d) != legacy prefix for %s under %+v:\n got %v\nwant %v",
			lim, q, *opts, lr.Nodes, wantPrefix)
		return
	}
	if !lr.Truncated && len(lr.Nodes) != len(want) {
		t.Errorf("RunLimit(%d) for %s under %+v: Truncated=false but %d of %d nodes returned",
			lim, q, *opts, len(lr.Nodes), len(want))
	}
	if lr.Truncated && len(lr.Nodes) < lim && len(lr.Nodes) < len(want) {
		t.Errorf("RunLimit(%d) for %s under %+v: Truncated=true but stopped early with %d nodes",
			lim, q, *opts, len(lr.Nodes))
	}
}

// randAxes spans every axis the parser can produce.
var randAxes = []axis.Axis{
	axis.Child, axis.Descendant, axis.DescendantOrSelf, axis.Parent,
	axis.Ancestor, axis.AncestorOrSelf, axis.Following, axis.Preceding,
	axis.FollowingSibling, axis.PrecedingSibling, axis.Self, axis.Attribute,
}

// randTest picks a node test; the tag vocabulary matches randomDoc.
func randTest(rng *rand.Rand) string {
	switch rng.Intn(8) {
	case 0:
		return "*"
	case 1:
		return "node()"
	case 2:
		return "text()"
	default:
		return []string{"p", "q", "r", "s", "zz"}[rng.Intn(5)]
	}
}

// randChildChain builds an existential child path: 1-3 bare child steps
// with a name or '*' test before the last and a name, '*' or text() test
// last. One chain in four puts a predicate on a prefix step, a decoy
// that no semijoin serves.
func randChildChain(rng *rand.Rand) string {
	n := 1 + rng.Intn(3)
	decoy := -1
	if n > 1 && rng.Intn(4) == 0 {
		decoy = rng.Intn(n - 1)
	}
	var out string
	for i := 0; i < n; i++ {
		if i > 0 {
			out += "/"
		}
		test := []string{"p", "q", "r", "zz", "*"}[rng.Intn(5)]
		if i == n-1 && rng.Intn(4) == 0 {
			test = "text()"
		}
		if rng.Intn(2) == 0 {
			test = "child::" + test
		}
		out += test
		if i == decoy {
			out += "[" + randTest(rng) + "]"
		}
	}
	return out
}

// randPred builds a predicate string; depth bounds nesting.
func randPred(rng *rand.Rand, depth int) string {
	switch rng.Intn(8) {
	case 7:
		return randChildChain(rng)
	case 0:
		return fmt.Sprintf("%d", 1+rng.Intn(3))
	case 1:
		return "last()"
	case 2:
		return fmt.Sprintf("position()=%d", 1+rng.Intn(3))
	case 3:
		if depth > 0 {
			return "not(" + randPred(rng, depth-1) + ")"
		}
		return randStep(rng)
	case 4:
		if depth > 0 {
			return randPred(rng, depth-1) + " and " + randPred(rng, depth-1)
		}
		return randStep(rng)
	case 5:
		return randStep(rng) + " = 't'"
	default:
		// Existential paths, including the single-partitioning-step
		// form the staircase semijoin serves.
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("%s::%s", randAxes[rng.Intn(len(randAxes))], randTest(rng))
		}
		return randStep(rng)
	}
}

// randStep builds one step without predicates.
func randStep(rng *rand.Rand) string {
	a := randAxes[rng.Intn(len(randAxes))]
	t := randTest(rng)
	if a == axis.Attribute && rng.Intn(2) == 0 {
		return "@k"
	}
	return fmt.Sprintf("%s::%s", a, t)
}

// randQuery builds a full query: 1-2 union branches of 1-4 steps with
// 0-2 predicates each, absolute or relative, with '//' abbreviations
// mixed in to exercise the collapse rewrite.
func randQuery(rng *rand.Rand) string {
	branch := func() string {
		var out string
		if rng.Intn(2) == 0 {
			out = "/"
			if rng.Intn(3) == 0 {
				out = "//"
			}
		}
		steps := 1 + rng.Intn(4)
		for i := 0; i < steps; i++ {
			if i > 0 {
				if rng.Intn(4) == 0 {
					out += "//"
				} else {
					out += "/"
				}
			}
			s := randStep(rng)
			for p := 0; p < rng.Intn(3); p++ {
				s += "[" + randPred(rng, 1) + "]"
			}
			out += s
		}
		return out
	}
	q := branch()
	if rng.Intn(4) == 0 {
		q += " | " + branch()
	}
	return q
}

// quickTrials returns the iteration count for the heavyweight property
// suites: the default in ordinary runs, or STAIRCASE_QUICK_MAX when
// set (the nightly CI job cranks the suites up through this knob).
func quickTrials(def int) int {
	if s := os.Getenv("STAIRCASE_QUICK_MAX"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestPlanEquivalentToLegacyEval is the acceptance property: for every
// generated query and every knob combination, plan-based execution
// returns byte-identical node sequences to the reference evaluator.
func TestPlanEquivalentToLegacyEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := quickTrials(6)
	const queriesPerDoc = 60
	for trial := 0; trial < trials; trial++ {
		d := randomDoc(rng, 200)
		e := New(d)
		var queries []string
		for len(queries) < queriesPerDoc {
			q := randQuery(rng)
			if _, err := xpath.ParseQuery(q); err != nil {
				continue // rare: generator emitted something the grammar rejects
			}
			queries = append(queries, q)
		}
		knobs := []Options{
			{},
			{NoIndex: true},
			{Pushdown: PushAlways},
			{Pushdown: PushNever},
			{NoIndex: true, Pushdown: PushAlways},
			{NoReorder: true},
			{NoReorder: true, NoIndex: true},
		}
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				legacy, err := e.EvalString(q, &Options{LegacyEval: true})
				if err != nil {
					t.Errorf("legacy %s: %v", q, err)
					return
				}
				for _, k := range knobs {
					k := k
					got, err := e.EvalString(q, &k)
					if err != nil {
						t.Errorf("plan %s %+v: %v", q, k, err)
						return
					}
					if !eq32(got.Nodes, legacy.Nodes) {
						t.Errorf("plan != legacy for %s under %+v:\n got %v\nwant %v",
							q, k, got.Nodes, legacy.Nodes)
						return
					}
					checkStreaming(t, e, q, &k, legacy.Nodes)
				}
			}(q)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

// randFilterStep builds one step stacking 2-4 commutable predicates —
// the shape the greedy ordering pass reorders: existential steps, child
// chains and value comparisons (semijoin candidates) and per-node
// programs, in random source order.
func randFilterStep(rng *rand.Rand) string {
	s := randStep(rng)
	for p, n := 0, 2+rng.Intn(3); p < n; p++ {
		switch rng.Intn(4) {
		case 0:
			s += fmt.Sprintf("[%s::%s]", randAxes[rng.Intn(len(randAxes))], randTest(rng))
		case 1:
			s += "[" + randStep(rng) + " = 't']"
		case 2:
			s += "[" + randChildChain(rng) + "]"
		default:
			s += "[" + randPred(rng, 1) + "]"
		}
	}
	return s
}

// randFilterQuery: 1-3 steps, the last stacking a reorderable
// predicate chain.
func randFilterQuery(rng *rand.Rand) string {
	var out string
	if rng.Intn(2) == 0 {
		out = "/"
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		out += randStep(rng) + "/"
	}
	return out + randFilterStep(rng)
}

// TestReorderEquivalence is the ordering pass's differential property:
// for randomly generated multi-predicate queries, greedy-ordered
// evaluation, source-order evaluation (NoReorder) and the reference
// evaluator return byte-identical node sequences; draining the
// reordered chain through the filters' stacked cursors, each passing
// its seek hint down and stopping on its own exhaustion, matches too;
// and ordering never changes the canonical plan string (the
// result-cache key).
func TestReorderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := quickTrials(4)
	const queriesPerDoc = 40
	for trial := 0; trial < trials; trial++ {
		d := randomDoc(rng, 250)
		e := New(d)
		var queries []string
		for len(queries) < queriesPerDoc {
			q := randFilterQuery(rng)
			if _, err := xpath.ParseQuery(q); err != nil {
				continue
			}
			queries = append(queries, q)
		}
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				legacy, err := e.EvalString(q, &Options{LegacyEval: true})
				if err != nil {
					t.Errorf("legacy %s: %v", q, err)
					return
				}
				ordered, err := e.EvalString(q, &Options{})
				if err != nil {
					t.Errorf("ordered %s: %v", q, err)
					return
				}
				if !eq32(ordered.Nodes, legacy.Nodes) {
					t.Errorf("ordered != legacy for %s:\n got %v\nwant %v", q, ordered.Nodes, legacy.Nodes)
					return
				}
				plain, err := e.EvalString(q, &Options{NoReorder: true})
				if err != nil {
					t.Errorf("no-reorder %s: %v", q, err)
					return
				}
				if !eq32(plain.Nodes, legacy.Nodes) {
					t.Errorf("no-reorder != legacy for %s:\n got %v\nwant %v", q, plain.Nodes, legacy.Nodes)
					return
				}
				checkStreaming(t, e, q, &Options{}, legacy.Nodes)
				po, err := prepare(e, q, &Options{})
				if err != nil {
					t.Errorf("prepare %s: %v", q, err)
					return
				}
				pp, err := prepare(e, q, &Options{NoReorder: true})
				if err != nil {
					t.Errorf("prepare no-reorder %s: %v", q, err)
					return
				}
				if po.Canon() != pp.Canon() {
					t.Errorf("canon changed by ordering for %s:\n ordered %s\n   plain %s",
						q, po.Canon(), pp.Canon())
				}
			}(q)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

// TestPlanEquivalenceOnFixtureMatrix re-runs the curated fixture
// queries through every pushdown mode, comparing plan and legacy node
// sequences (both already agree with the spec evaluator; this pins
// plan == legacy per configuration).
func TestPlanEquivalenceOnFixtureMatrix(t *testing.T) {
	d := fixture(t)
	e := New(d)
	for _, q := range fixtureQueries {
		legacy, err := e.EvalString(q, &Options{LegacyEval: true})
		if err != nil {
			t.Fatalf("legacy %s: %v", q, err)
		}
		for _, push := range []Pushdown{PushAuto, PushAlways, PushNever} {
			opts := Options{Pushdown: push}
			got, err := e.EvalString(q, &opts)
			if err != nil {
				t.Fatalf("plan %s: %v", q, err)
			}
			if !eq32(got.Nodes, legacy.Nodes) {
				t.Fatalf("plan != legacy for %s [%v]:\n got %v\nwant %v",
					q, push, got.Nodes, legacy.Nodes)
			}
			checkStreaming(t, e, q, &opts, legacy.Nodes)
		}
	}
}
