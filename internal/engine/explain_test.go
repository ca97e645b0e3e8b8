package engine

import (
	"strings"
	"testing"
)

func TestExplainStaircasePlan(t *testing.T) {
	e := New(fixture(t))
	out, err := e.Explain("/descendant::increase/ancestor::bidder", nil)
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
	out, err := e.Explain("/descendant::education", &Options{Pushdown: PushAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pushed below join") {
		t.Errorf("expected pushdown note:\n%s", out)
	}
	out, err = e.Explain("/descendant::education", &Options{Pushdown: PushNever})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "applied after join") {
		t.Errorf("expected post-filter note:\n%s", out)
	}
}

func TestExplainUnionAndPredicates(t *testing.T) {
	e := New(fixture(t))
	out, err := e.Explain("//person[profile and name] | //bidder", nil)
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
	out, err := e.Explain("//profile/parent::person/@id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "positional parent lookup") {
		t.Errorf("expected positional lookup note:\n%s", out)
	}
	if !strings.Contains(out, "positional attribute lookup") {
		t.Errorf("expected attribute lookup note:\n%s", out)
	}
}

func TestExplainParseError(t *testing.T) {
	e := New(fixture(t))
	if _, err := e.Explain("//[", nil); err == nil {
		t.Fatal("expected parse error")
	}
}
