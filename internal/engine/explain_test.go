package engine

import (
	"strings"
	"testing"
)

// explain prepares and runs a query and renders its executed plan as
// EXPLAIN text, as the root package's Document.Explain does.
func explain(e *Engine, q string, opts *Options) (string, error) {
	p, err := prepare(e, q, opts)
	if err != nil {
		return "", err
	}
	r, err := p.RunRoot()
	if err != nil {
		return "", err
	}
	return p.ExplainText(r), nil
}

// explainJSON is explain in JSON form.
func explainJSON(e *Engine, q string, opts *Options) ([]byte, error) {
	p, err := prepare(e, q, opts)
	if err != nil {
		return nil, err
	}
	r, err := p.RunRoot()
	if err != nil {
		return nil, err
	}
	return p.ExplainJSON(r)
}

func TestExplainStaircasePlan(t *testing.T) {
	e := New(fixture(t))
	out, err := explain(e, "/descendant::increase/ancestor::bidder", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"step 1", "step 2",
		"staircase join",
		"no duplicates, document order",
		"pruning:",
		"cardinality:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainPushdownDecision(t *testing.T) {
	e := New(fixture(t))
	out, err := explain(e, "/descendant::education", &Options{Pushdown: PushAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pushed below join") {
		t.Errorf("expected pushdown note:\n%s", out)
	}
	out, err = explain(e, "/descendant::education", &Options{Pushdown: PushNever})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "applied after join") {
		t.Errorf("expected post-filter note:\n%s", out)
	}
}

func TestExplainUnionAndPredicates(t *testing.T) {
	e := New(fixture(t))
	out, err := explain(e, "//person[profile and name] | //bidder", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "union branch 1") || !strings.Contains(out, "union branch 2") {
		t.Errorf("expected union branches:\n%s", out)
	}
	if !strings.Contains(out, "predicate filter") {
		t.Errorf("expected predicate note:\n%s", out)
	}
	if !strings.Contains(out, "merge-union") {
		t.Errorf("expected merge-union note:\n%s", out)
	}
}

func TestExplainNonPartitioningAxis(t *testing.T) {
	e := New(fixture(t))
	out, err := explain(e, "//profile/parent::person/@id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "blocking parent lookup") {
		t.Errorf("expected blocking lookup note:\n%s", out)
	}
	if !strings.Contains(out, "streaming attribute sweep") {
		t.Errorf("expected attribute sweep note:\n%s", out)
	}
}

func TestExplainParseError(t *testing.T) {
	e := New(fixture(t))
	if _, err := explain(e, "//[", nil); err == nil {
		t.Fatal("expected parse error")
	}
}
