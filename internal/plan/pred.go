// Predicate programs: the compiled form of step qualifiers. Each
// predicate is compiled once per plan — existential and comparison
// predicates carry a full sub-plan for their relative path — and then
// evaluated per candidate node (PredFilter) or per proximity position
// (PosFilter). The semijoin rewrite (semijoin.go) bypasses this
// machinery entirely for the predicates a fragment serves.

package plan

import (
	"fmt"
	"strings"

	"staircase/internal/xpath"
)

// predProg kinds.
const (
	pgExists uint8 = iota
	pgCompare
	pgContains
	pgPosition
	pgLast
	pgNot
	pgAnd
	pgOr
)

// predProg is one compiled predicate.
type predProg struct {
	kind    uint8
	sub     *Plan // pgExists, pgCompare, pgContains: the relative path's sub-plan
	op      xpath.CompareOp
	lit     string
	numeric bool // pgCompare: number literal, compare as float64
	n       int
	kids    []*predProg
}

// compilePredProg compiles a predicate against the plan's environment
// and options.
func compilePredProg(env *Env, opts *Options, pred xpath.Predicate) (*predProg, error) {
	switch p := pred.(type) {
	case xpath.Exists:
		sub, err := compileSubPath(env, opts, p.Path)
		if err != nil {
			return nil, err
		}
		return &predProg{kind: pgExists, sub: sub}, nil
	case xpath.Compare:
		sub, err := compileSubPath(env, opts, p.Path)
		if err != nil {
			return nil, err
		}
		return &predProg{kind: pgCompare, sub: sub, op: p.Op, lit: p.Literal, numeric: p.Numeric}, nil
	case xpath.Contains:
		sub, err := compileSubPath(env, opts, p.Path)
		if err != nil {
			return nil, err
		}
		return &predProg{kind: pgContains, sub: sub, lit: p.Literal}, nil
	case xpath.Position:
		return &predProg{kind: pgPosition, n: p.N}, nil
	case xpath.Last:
		return &predProg{kind: pgLast}, nil
	case xpath.Not:
		kid, err := compilePredProg(env, opts, p.Inner)
		if err != nil {
			return nil, err
		}
		return &predProg{kind: pgNot, kids: []*predProg{kid}}, nil
	case xpath.And:
		kids, err := compilePredProgs(env, opts, p.Preds)
		if err != nil {
			return nil, err
		}
		return &predProg{kind: pgAnd, kids: kids}, nil
	case xpath.Or:
		kids, err := compilePredProgs(env, opts, p.Preds)
		if err != nil {
			return nil, err
		}
		return &predProg{kind: pgOr, kids: kids}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported predicate %T", pred)
	}
}

func compilePredProgs(env *Env, opts *Options, preds []xpath.Predicate) ([]*predProg, error) {
	kids := make([]*predProg, 0, len(preds))
	for _, q := range preds {
		kid, err := compilePredProg(env, opts, q)
		if err != nil {
			return nil, err
		}
		kids = append(kids, kid)
	}
	return kids, nil
}

// compileSubPath compiles the relative (or absolute) path of a
// predicate into a sub-plan, sharing the parent plan's environment and
// options.
func compileSubPath(env *Env, opts *Options, path xpath.Path) (*Plan, error) {
	l := BuildLogical(xpath.Query{Paths: []xpath.Path{path}})
	Rewrite(l)
	return Compile(env, l, opts)
}

// evalSub runs a predicate sub-plan for one candidate node. Every
// candidate of one outer execution reuses one sub-execution, created on
// first use: it carries the outer cancellation and a one-node initial
// context, and its statistics are never reported. The result may alias
// that initial context, so it is valid until the next evalSub of pg. The
// sub-execution keeps its cursors, so a candidate opens none anew.
func (pg *predProg) evalSub(ec *execCtx, v int32) ([]int32, error) {
	sub := ec.subs[pg]
	if sub == nil {
		sub = pg.sub.newExecCtx(ec.ctx, make([]int32, 1))
		sub.curs = make([]cursor, len(pg.sub.ops))
		if ec.subs == nil {
			ec.subs = make(map[*predProg]*execCtx)
		}
		ec.subs[pg] = sub
	}
	sub.initial[0] = v
	c, err := pg.sub.root.open(sub, true)
	if err != nil {
		return nil, err
	}
	defer c.close()
	return drain(c)
}

// holds decides a non-positional predicate for one candidate node.
func (pg *predProg) holds(ec *execCtx, v int32) (bool, error) {
	switch pg.kind {
	case pgExists:
		nodes, err := pg.evalSub(ec, v)
		if err != nil {
			return false, err
		}
		return len(nodes) > 0, nil
	case pgCompare:
		nodes, err := pg.evalSub(ec, v)
		if err != nil {
			return false, err
		}
		for _, n := range nodes {
			if xpath.CompareValue(ec.env.Doc.StringValue(n), pg.op, pg.lit, pg.numeric) {
				return true, nil
			}
		}
		return false, nil
	case pgContains:
		nodes, err := pg.evalSub(ec, v)
		if err != nil {
			return false, err
		}
		for _, n := range nodes {
			if strings.Contains(ec.env.Doc.StringValue(n), pg.lit) {
				return true, nil
			}
		}
		return false, nil
	case pgNot:
		ok, err := pg.kids[0].holds(ec, v)
		return !ok, err
	case pgAnd:
		for _, kid := range pg.kids {
			ok, err := kid.holds(ec, v)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case pgOr:
		for _, kid := range pg.kids {
			ok, err := kid.holds(ec, v)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("plan: unsupported positional predicate in set mode")
	}
}

// holdsAt decides any predicate for a node at a known proximity
// position.
func (pg *predProg) holdsAt(ec *execCtx, v int32, pos, size int) (bool, error) {
	switch pg.kind {
	case pgPosition:
		return pos == pg.n, nil
	case pgLast:
		return pos == size, nil
	case pgNot:
		ok, err := pg.kids[0].holdsAt(ec, v, pos, size)
		return !ok, err
	case pgAnd:
		for _, kid := range pg.kids {
			ok, err := kid.holdsAt(ec, v, pos, size)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case pgOr:
		for _, kid := range pg.kids {
			ok, err := kid.holdsAt(ec, v, pos, size)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return pg.holds(ec, v)
	}
}
