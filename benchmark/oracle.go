package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"staircase"
)

// digest summarises a node sequence: its length and an FNV-1a hash
// folded once per 32-bit preorder rank. ordered records that the ranks
// were strictly increasing, which every result must be.
type digest struct {
	count   int
	hash    uint64
	ordered bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// newDigest starts an empty digest; add folds nodes into it.
func newDigest() digest { return digest{hash: fnvOffset, ordered: true} }

func (d *digest) add(nodes []int32, prev int32) int32 {
	h := d.hash
	for _, v := range nodes {
		if v <= prev {
			d.ordered = false
		}
		prev = v
		h = (h ^ uint64(uint32(v))) * fnvPrime
	}
	d.hash = h
	d.count += len(nodes)
	return prev
}

func digestOf(nodes []int32) digest {
	d := newDigest()
	d.add(nodes, -1)
	return d
}

// oracleOptions is the independent evaluation route: the pre-plan
// recursive interpreter over the basic staircase join, with neither
// index and no reordering.
var oracleOptions = &staircase.Options{
	LegacyEval:   true,
	Strategy:     staircase.StaircaseNoSkip,
	NoIndex:      true,
	NoValueIndex: true,
	NoReorder:    true,
}

// fillOracle computes the expected digest of every distinct query of
// the script on d, outside any timed region. Limited queries expect
// the k-prefix of the full oracle result.
func fillOracle(d *staircase.Document, s *script) error {
	families := map[*family]*familyOracle{}
	full := map[string][]int{} // text -> indices of queries sharing it
	for i := range s.queries {
		q := &s.queries[i]
		if q.family != nil {
			if families[q.family] == nil {
				fo, err := newFamilyOracle(d, q.family)
				if err != nil {
					return err
				}
				families[q.family] = fo
			}
			q.want = families[q.family].digest(q.constant)
			continue
		}
		full[q.text] = append(full[q.text], i)
	}
	texts := make(chan string)
	errs := make(chan error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for text := range texts {
				res, err := d.Query(text, oracleOptions)
				if err != nil {
					errs <- fmt.Errorf("oracle: %s: %w", text, err)
					continue
				}
				for _, i := range full[text] {
					q := &s.queries[i]
					nodes := res.Nodes
					if q.limit > 0 && len(nodes) > q.limit {
						nodes = nodes[:q.limit]
					}
					q.want = digestOf(nodes)
				}
			}
		}()
	}
	for text := range full {
		texts <- text
	}
	close(texts)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// familyOracle answers every instance of one serve_adhoc family from
// three constant-free legacy evaluations: the candidates (the base
// path), their key nodes and their tail nodes. An instance's result is
// the tail nodes below those candidates that own at least one key
// node whose number satisfies the comparison — XPath's existential
// predicate semantics, spelled out.
type familyOracle struct {
	f *family
	// keys[i] holds the numeric key values below candidate i;
	// tails[i] its tail nodes. Candidates never nest, so ownership is
	// pre/post containment.
	keys  [][]float64
	tails [][]int32
}

func newFamilyOracle(d *staircase.Document, f *family) (*familyOracle, error) {
	eval := func(text string) ([]int32, error) {
		res, err := d.Query(text, oracleOptions)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", text, err)
		}
		return res.Nodes, nil
	}
	cands, err := eval(f.base())
	if err != nil {
		return nil, err
	}
	keyNodes, err := eval(f.base() + "/" + f.key)
	if err != nil {
		return nil, err
	}
	tailNodes, err := eval(f.base() + f.tail)
	if err != nil {
		return nil, err
	}
	fo := &familyOracle{f: f, keys: make([][]float64, len(cands)), tails: make([][]int32, len(cands))}
	k, t := 0, 0
	for i, c := range cands {
		below := func(v int32) bool { return v > c && d.Post(v) < d.Post(c) }
		for ; k < len(keyNodes) && keyNodes[k] <= c; k++ {
		}
		for ; k < len(keyNodes) && below(keyNodes[k]); k++ {
			if x, err := strconv.ParseFloat(strings.TrimSpace(d.StringValue(keyNodes[k])), 64); err == nil {
				fo.keys[i] = append(fo.keys[i], x)
			}
		}
		for ; t < len(tailNodes) && tailNodes[t] <= c; t++ {
		}
		start := t
		for ; t < len(tailNodes) && below(tailNodes[t]); t++ {
		}
		fo.tails[i] = tailNodes[start:t]
	}
	return fo, nil
}

func (fo *familyOracle) digest(c float64) digest {
	d := newDigest()
	prev := int32(-1)
	for i, keys := range fo.keys {
		for _, x := range keys {
			if (fo.f.op == ">" && x > c) || (fo.f.op == "<" && x < c) {
				prev = d.add(fo.tails[i], prev)
				break
			}
		}
	}
	return d
}

// check compares a measured operation's digest with the oracle's.
func (q *query) check(got digest) error {
	switch {
	case !got.ordered:
		return fmt.Errorf("%s: preorder ranks not strictly increasing", q.text)
	case got.count != q.want.count || got.hash != q.want.hash:
		return fmt.Errorf("%s (limit %d): got %d nodes (hash %x), oracle has %d (hash %x)",
			q.text, q.limit, got.count, got.hash, q.want.count, q.want.hash)
	}
	return nil
}
