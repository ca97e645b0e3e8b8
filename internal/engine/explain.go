package engine

// EXPLAIN renders the optimized physical plan the engine runs for a
// query — the counterpart of the DB2 plan analysis in the paper's
// Figure 3, now produced by the plan compiler: the operator tree with
// the rewrite rules that fired, each operator's fragment source
// (shared tag/kind index vs name-column scan), the pushdown decision,
// and per-operator cardinalities.
//
// Explain *executes the plan* (plans in this engine are cheap to run
// relative to parsing a 100 MB document) and reports the decisions
// taken and the actual cardinality at each operator, next to the
// compile-time estimates.

// Explain returns the executed plan tree in text form.
func (e *Engine) Explain(query string, opts *Options) (string, error) {
	p, err := e.PrepareString(query, opts)
	if err != nil {
		return "", err
	}
	return p.Explain()
}

// ExplainJSON returns the executed plan tree in JSON form.
func (e *Engine) ExplainJSON(query string, opts *Options) ([]byte, error) {
	p, err := e.PrepareString(query, opts)
	if err != nil {
		return nil, err
	}
	return p.ExplainJSON()
}
