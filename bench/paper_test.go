package bench

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/baseline"
	"staircase/internal/core"
)

// The paper's evaluation as golden work tables. The twelve experiments
// run on xmark.Generate (seed 42) at paperSizes; every count column of
// every table — any column that is not a wall-clock time or a ratio of
// two — is pinned in testdata/paper_golden.json, and the shape the paper
// reports is asserted beside it on integers. `go test ./bench -run Paper
// -v` logs every table, timings included. Regenerate the golden file
// (go test ./bench -run PaperGolden -update-paper-golden) only in a
// commit of its own, for a change that means to move the counts.

var updatePaperGolden = flag.Bool("update-paper-golden", false, "rewrite testdata/paper_golden.json")

// paperSizes are the golden tables' document sizes in MB equivalents:
// two sizes show the shapes hold as the document grows, and both stay
// small because Fig. 3's SQL plan is quadratic in the context's region.
var paperSizes = []float64{0.2, 0.5}

var (
	paperOnce   sync.Once
	paperCorpus *Corpus
	paperRun    []Table
)

// paperTables runs the twelve paper experiments once per test binary.
func paperTables() []Table {
	paperOnce.Do(func() {
		paperCorpus = NewCorpus()
		for _, exp := range Experiments {
			paperRun = append(paperRun, exp.Run(paperCorpus, paperSizes))
		}
	})
	return paperRun
}

// paperTable returns the table of one experiment id.
func paperTable(t *testing.T, id string) Table {
	t.Helper()
	for _, tb := range paperTables() {
		if tb.ID == id {
			return tb
		}
	}
	t.Fatalf("no paper table %q", id)
	return Table{}
}

// timing reports whether a column holds a wall-clock time or a ratio of
// two times: benchrun prints those to illustrate, the golden file does
// not pin them.
func timing(col string) bool {
	return strings.Contains(col, "[ms]") || strings.HasPrefix(col, "ms-per") || strings.HasSuffix(col, "speedup")
}

// countColumns renders a table's count columns as they print, header
// first, one line per row.
func countColumns(tb Table) []string {
	var keep []int
	for i, h := range tb.Header {
		if !timing(h) {
			keep = append(keep, i)
		}
	}
	line := func(cells []string) string {
		kept := make([]string, len(keep))
		for j, i := range keep {
			kept[j] = cells[i]
		}
		return strings.Join(kept, " | ")
	}
	lines := []string{line(tb.Header)}
	for _, row := range tb.Rows {
		lines = append(lines, line(row))
	}
	return lines
}

func TestPaperGolden(t *testing.T) {
	got := map[string][]string{}
	for _, tb := range paperTables() {
		t.Log("\n" + tb.Format())
		got[tb.ID] = countColumns(tb)
	}
	path := filepath.Join("testdata", "paper_golden.json")
	if *updatePaperGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d tables, golden has %d", len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; !slices.Equal(g, w) {
			t.Errorf("%s: count columns\n%s\ngolden\n%s", id, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
}

// num reads an integer cell of row r by column name.
func num(t *testing.T, tb Table, r int, col string) int64 {
	t.Helper()
	for i, h := range tb.Header {
		if h == col {
			n, err := strconv.ParseInt(tb.Rows[r][i], 10, 64)
			if err != nil {
				t.Fatalf("%s row %d column %s: %v", tb.ID, r, col, err)
			}
			return n
		}
	}
	t.Fatalf("%s: no column %q", tb.ID, col)
	return 0
}

// paperShapes are the paper's claims, one per experiment that makes a
// count claim, asserted on every row (every size) of the table.
var paperShapes = map[string]func(t *testing.T, tb Table){
	// Table 1: the descendant-of-root region dwarfs the step-2 axis
	// result, which exceeds step 1; Q1's name test then shrinks it below
	// step 1, and Q2's result is exactly its step-1 context's size.
	"table1": func(t *testing.T, tb Table) {
		for r, row := range tb.Rows {
			root, step1 := num(t, tb, r, "/descendant::node()"), num(t, tb, r, "step1")
			axisRes, res := num(t, tb, r, "step2-axis"), num(t, tb, r, "result")
			ok := root > axisRes && axisRes > step1
			if row[2] == "Q1" {
				ok = ok && step1 > res
			} else {
				ok = ok && step1 == res
			}
			if !ok {
				t.Errorf("%s %s MB: root %d, step-2 axis %d, step 1 %d, result %d out of the paper's order", row[2], row[0], root, axisRes, step1, res)
			}
		}
	},
	// Fig. 3: the SQL plan produces duplicates; the staircase join
	// produces the same number of nodes, strictly ascending.
	"fig3": func(t *testing.T, tb Table) {
		for r := range tb.Rows {
			if dups := num(t, tb, r, "sql-dups"); dups <= 0 {
				t.Errorf("row %d: the SQL plan produced %d duplicates, want > 0", r, dups)
			}
			d := paperCorpus.Doc(paperSizes[r])
			ctx := []int32{getContexts(d).increases[0]}
			scj := core.DescendantJoin(d, core.FollowingJoin(d, ctx, nil), nil)
			e := baseline.NewSQLEngine(d)
			f, err := e.Step(axis.Following, ctx, baseline.SQLOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sql, err := e.Step(axis.Descendant, f, baseline.SQLOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(scj)) != num(t, tb, r, "result") || len(scj) != len(sql) {
				t.Errorf("row %d: staircase %d nodes, SQL %d, table %d", r, len(scj), len(sql), num(t, tb, r, "result"))
			}
			for i := 1; i < len(scj); i++ {
				if scj[i] <= scj[i-1] {
					t.Fatalf("row %d: staircase result not strictly ascending at %d: %d after %d", r, i, scj[i], scj[i-1])
				}
			}
		}
	},
	// Fig. 11 (a): naive per-context evaluation produces every staircase
	// node plus the duplicates, and the duplicates are 60–85 % of what
	// it produces (the paper: ≈ 75 %).
	"fig11a": func(t *testing.T, tb Table) {
		for r := range tb.Rows {
			produced, scj, dups := num(t, tb, r, "naive-produced"), num(t, tb, r, "staircase"), num(t, tb, r, "dups-avoided")
			if produced <= scj || produced != scj+dups {
				t.Errorf("row %d: naive produced %d, staircase %d, duplicates %d", r, produced, scj, dups)
			}
			if 100*dups < 60*produced || 100*dups > 85*produced {
				t.Errorf("row %d: %d of %d produced are duplicates, want 60–85 %%", r, dups, produced)
			}
		}
	},
	// Fig. 11 (c): skipping scans fewer nodes than no skipping, and skips
	// at least 85 % of them (the paper: ≈ 92 %).
	"fig11c": func(t *testing.T, tb Table) {
		for r := range tb.Rows {
			noskip, skip := num(t, tb, r, "no-skip"), num(t, tb, r, "skip")
			if skip >= noskip {
				t.Errorf("row %d: skip scanned %d, no-skip %d", r, skip, noskip)
			}
			if 100*(noskip-skip) < 85*noskip {
				t.Errorf("row %d: skipping avoided %d of %d nodes, want >= 85 %%", r, noskip-skip, noskip)
			}
		}
	},
	// §2.1: the Equation (1) window delimits the index range scans.
	"window": func(t *testing.T, tb Table) {
		for r := range tb.Rows {
			if plain, win := num(t, tb, r, "keys-scanned"), num(t, tb, r, "keys-scanned+window"); win >= plain {
				t.Errorf("row %d: %d keys with the window, %d without", r, win, plain)
			}
		}
	},
	// §5: MPMGJN touches more nodes than the staircase join.
	"mpmgjn": func(t *testing.T, tb Table) {
		for r := range tb.Rows {
			if scj, mp := num(t, tb, r, "scj-touched"), num(t, tb, r, "mpmgjn-touched"); mp <= scj {
				t.Errorf("row %d: MPMGJN touched %d, staircase join %d", r, mp, scj)
			}
		}
	},
	// §4.1: the encoding takes at most 1.5× the XML text.
	"storage": func(t *testing.T, tb Table) {
		for r := range tb.Rows {
			if xml, enc := num(t, tb, r, "xml-bytes"), num(t, tb, r, "encoded-bytes"); 2*enc > 3*xml {
				t.Errorf("row %d: %d encoded bytes for %d XML bytes, want <= 1.5x", r, enc, xml)
			}
		}
	},
}

func TestPaperShape(t *testing.T) {
	for _, id := range slices.Sorted(maps.Keys(paperShapes)) {
		check := paperShapes[id]
		t.Run(id, func(t *testing.T) {
			tb := paperTable(t, id)
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			check(t, tb)
		})
	}
}
