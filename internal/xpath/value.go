// Value-comparison semantics shared by every execution path. The plan
// executor's predicate programs, the reference evaluator
// (internal/spec), the value index's overflow filter, and the
// eligibility rules of the semijoin rewrite all call these two
// functions, so the three ways a comparison predicate can evaluate
// (index lookup, per-node plan filter, reference evaluator) agree by
// construction.
package xpath

import (
	"staircase/internal/vindex"
)

// ParseNumber parses a node string value (or literal) as a finite
// number: optional surrounding whitespace around a decimal float.
// NaN and infinities are rejected — they cannot appear as literals and
// admitting them from content would break the total order the value
// index sorts numeric keys by. The definition lives in internal/vindex
// (which derives its numeric partition with it at build and load
// time); re-exporting it here keeps one implementation for index
// lookups and per-node comparison alike.
func ParseNumber(s string) (float64, bool) {
	return vindex.ParseNumber(s)
}

// CompareValue reports whether the node string value s stands in
// relation op to the literal lit. With numeric set (the literal was a
// number), both sides convert via ParseNumber and a value that is not
// a finite number never matches — under any operator, including '!='.
// Without it, the comparison is bytewise over the raw strings ('<' etc.
// order lexicographically).
func CompareValue(s string, op CompareOp, lit string, numeric bool) bool {
	if numeric {
		v, ok := ParseNumber(s)
		if !ok {
			return false
		}
		w, ok := ParseNumber(lit)
		if !ok {
			return false
		}
		switch op {
		case OpEq:
			return v == w
		case OpNe:
			return v != w
		case OpLt:
			return v < w
		case OpLe:
			return v <= w
		case OpGt:
			return v > w
		case OpGe:
			return v >= w
		}
		return false
	}
	switch op {
	case OpEq:
		return s == lit
	case OpNe:
		return s != lit
	case OpLt:
		return s < lit
	case OpLe:
		return s <= lit
	case OpGt:
		return s > lit
	case OpGe:
		return s >= lit
	}
	return false
}
