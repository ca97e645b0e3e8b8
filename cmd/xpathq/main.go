// Command xpathq loads an XML document into the XPath accelerator
// encoding and evaluates XPath queries against it with a selectable
// axis-step strategy — a tiny interactive face for the public
// staircase package.
//
// Usage:
//
//	xpathq -f doc.xml '//person[profile/education]/name'
//	xpathq -f doc.xml -strategy sql -stats '/descendant::increase/ancestor::bidder'
//	xpathq -f doc.xml -parallel -1 -stats '/descendant::open_auction/descendant::bidder'
//	xpathq -f doc.xml -explain '//bidder[descendant::increase]'
//	xpathq -f doc.xml -explain -json '//bidder'
//	xmlgen -size 1 | xpathq '/descendant::profile/descendant::education'
//
// Output: one line per result node with pre rank, kind, name and (for
// small results) the serialized node. -explain prints the optimized
// plan tree instead (text, or JSON with -json).
package main

import (
	"flag"
	"fmt"
	"os"

	"staircase"
)

// strategies maps flag values to engine strategies.
var strategies = map[string]staircase.Strategy{
	"staircase":        staircase.Staircase,
	"staircase-skip":   staircase.StaircaseSkip,
	"staircase-noskip": staircase.StaircaseNoSkip,
	"naive":            staircase.NaiveStrategy,
	"sql":              staircase.SQLStrategy,
	"sql-window":       staircase.SQLWindowStrategy,
}

var pushdowns = map[string]staircase.PushdownMode{
	"auto":   staircase.PushAuto,
	"always": staircase.PushAlways,
	"never":  staircase.PushNever,
}

func main() {
	file := flag.String("f", "", "XML or SCJ binary file (default: stdin; format sniffed)")
	strategy := flag.String("strategy", "staircase", "axis-step strategy: staircase, staircase-skip, staircase-noskip, naive, sql, sql-window")
	pushdown := flag.String("pushdown", "auto", "name-test pushdown: auto, always, never")
	stats := flag.Bool("stats", false, "print per-step statistics")
	explain := flag.Bool("explain", false, "print the optimized physical plan instead of results")
	asJSON := flag.Bool("json", false, "with -explain: print the plan tree as JSON")
	limit := flag.Int("limit", 20, "max result nodes to print (0 = all)")
	parallel := flag.Int("parallel", 0, "staircase-join workers: 0/1 = serial, N > 1 = up to N workers, -1 = GOMAXPROCS")
	useIndex := flag.Bool("index", true, "use the shared tag/kind index for name-test pushdown (false: per-step column rescan; results identical)")
	useVIndex := flag.Bool("value-index", true, "use the value index for comparison and contains() predicates (false: per-node re-evaluation; results identical)")
	noReorder := flag.Bool("no-reorder", false, "disable greedy filter ordering and adaptive re-planning (source-order predicate evaluation; results identical)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xpathq [-f doc.xml] [flags] 'xpath-query'")
		os.Exit(2)
	}
	query := flag.Arg(0)

	strat, ok := strategies[*strategy]
	if !ok {
		fmt.Fprintf(os.Stderr, "xpathq: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	push, ok := pushdowns[*pushdown]
	if !ok {
		fmt.Fprintf(os.Stderr, "xpathq: unknown pushdown mode %q\n", *pushdown)
		os.Exit(2)
	}

	var d *staircase.Document
	var err error
	if *file != "" {
		d, err = staircase.Open(*file)
	} else {
		d, err = staircase.Load(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpathq:", err)
		os.Exit(1)
	}

	opts := &staircase.Options{
		Strategy:     strat,
		Pushdown:     push,
		Parallelism:  *parallel,
		NoIndex:      !*useIndex,
		NoValueIndex: !*useVIndex,
		NoReorder:    *noReorder,
	}
	if *explain {
		var out []byte
		if *asJSON {
			out, err = d.ExplainJSON(query, opts)
			out = append(out, '\n')
		} else {
			var text string
			text, err = d.Explain(query, opts)
			out = []byte(text)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpathq:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	res, err := d.Query(query, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpathq:", err)
		os.Exit(1)
	}

	fmt.Printf("%d node(s)\n", len(res.Nodes))
	shown := len(res.Nodes)
	if *limit > 0 && shown > *limit {
		shown = *limit
	}
	for _, v := range res.Nodes[:shown] {
		line := fmt.Sprintf("pre=%-8d %-22s %s", v, d.Kind(v), d.Name(v))
		if d.Kind(v) != staircase.ElemNode || d.SubtreeSize(v) < 16 {
			if x := d.XML(v); len(x) < 120 {
				line += "  " + x
			}
		}
		fmt.Println(line)
	}
	if shown < len(res.Nodes) {
		fmt.Printf("... %d more\n", len(res.Nodes)-shown)
	}

	if *stats {
		fmt.Println("\nper-step statistics:")
		for i, s := range res.Steps {
			fmt.Printf("  step %d: %-40s %6d -> %-6d  %8.3fms  pushed=%v indexed=%v\n",
				i+1, s.Step, s.InputSize, s.OutputSize,
				float64(s.Duration.Microseconds())/1000, s.Pushed, s.Indexed)
			if s.Core.Scanned > 0 {
				fmt.Printf("          staircase: pruned %d->%d, scanned %d (copied %d, compared %d), skipped %d\n",
					s.Core.ContextSize, s.Core.PrunedSize, s.Core.Scanned,
					s.Core.Copied, s.Core.Compared, s.Core.Skipped)
				if s.Core.Workers > 1 {
					fmt.Printf("          parallel: %d workers\n", s.Core.Workers)
				}
			}
			if s.Naive.Produced > 0 {
				fmt.Printf("          naive: produced %d, duplicates %d\n",
					s.Naive.Produced, s.Naive.Duplicates)
			}
		}
	}
}
