package plan

// Tests for predicate sub-plans (pred.go): every candidate node of one
// execution runs its sub-plan on one reused sub-execution, which carries
// the outer execution's cancellation.

import (
	"context"
	"errors"
	"math"
	"testing"

	"staircase/internal/xmark"
)

// predFilterProg returns the program of the plan's single PredFilter.
func predFilterProg(t *testing.T, p *Plan) *predProg {
	t.Helper()
	for _, o := range p.ops {
		if f, ok := o.(*predFilterOp); ok && f.prog.sub != nil {
			return f.prog
		}
	}
	t.Fatal("plan has no PredFilter with a sub-plan")
	return nil
}

// TestPredicateSubPlanAllocations: a candidate of a per-node predicate
// allocates what its sub-plan's steps return and nothing per candidate
// besides — no execution context, statistics arrays, initial slice or
// Result. != is no value range, so the value rewrite leaves it to
// PredFilter.
func TestPredicateSubPlanAllocations(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 1, Seed: 11, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(d)
	const q = "//person[profile/@income != 20000]"
	p := compileQuery(t, env, q, nil)
	predFilterProg(t, p)
	persons := len(run(t, env, "//person", nil))
	if persons < 100 || len(run(t, env, q, nil)) == 0 {
		t.Fatalf("%d persons, %s empty: too small to tell", persons, q)
	}
	least := math.MaxFloat64
	for range 5 {
		least = min(least, testing.AllocsPerRun(2, func() {
			if _, err := p.RunRoot(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("%s: %.0f allocations for %d candidates", q, least, persons)
	// The child and the attribute step return one slice each at most.
	if per := least / float64(persons); per > 2 {
		t.Errorf("%s: %.2f allocations a candidate, want <= 2", q, per)
	}
}

// errAfter is a context whose Err reports cancellation from its
// (after+1)-th call on.
type errAfter struct {
	context.Context
	calls, after int
}

func (c *errAfter) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestPredicateSubPlanCancels: a sub-plan runs under the outer
// execution's context, so cancelling it stops a per-node predicate at
// the next sub-plan run rather than at PredFilter's check every 1 024
// candidates. Every sub-plan run checks the context at least once, so
// the calls to Err bound the runs.
func TestPredicateSubPlanCancels(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(d)
	const q = "//*[following::node()]"
	p := compileQuery(t, env, q, nil)
	predFilterProg(t, p)
	if n := len(run(t, env, "//*", nil)); n < 2048 {
		t.Fatalf("%d candidates: too few to tell", n)
	}
	const after = 16
	ctx := &errAfter{Context: context.Background(), after: after}
	if _, err := p.RunLimit(ctx, []int32{d.Root()}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("%s under a cancelled context: error %v, want %v", q, err, context.Canceled)
	}
	if ctx.calls > after+1 {
		t.Errorf("%s went on for %d checks after the context was cancelled", q, ctx.calls-after)
	}
}
