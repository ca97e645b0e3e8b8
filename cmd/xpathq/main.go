// Command xpathq loads an XML document into the XPath accelerator
// encoding and evaluates XPath queries against it with the staircase
// join — a tiny interactive face for the public staircase package.
//
// Usage:
//
//	xpathq -f doc.xml '//person[profile/education]/name'
//	xpathq -f doc.xml -pushdown never -stats '/descendant::increase/ancestor::bidder'
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

var pushdowns = map[string]staircase.PushdownMode{
	"auto":   staircase.PushAuto,
	"always": staircase.PushAlways,
	"never":  staircase.PushNever,
}

// config is the parsed command line.
type config struct {
	file, pushdown                 string
	stats, explain, asJSON         bool
	limit                          int
	useIndex, useVIndex, noReorder bool
}

// registerFlags declares the command's flags on fs.
func registerFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.StringVar(&c.file, "f", "", "XML or SCJ binary file (default: stdin; format sniffed)")
	fs.StringVar(&c.pushdown, "pushdown", "auto", "name-test pushdown: auto, always, never")
	fs.BoolVar(&c.stats, "stats", false, "print per-step statistics")
	fs.BoolVar(&c.explain, "explain", false, "print the optimized physical plan instead of results")
	fs.BoolVar(&c.asJSON, "json", false, "with -explain: print the plan tree as JSON")
	fs.IntVar(&c.limit, "limit", 20, "max result nodes to print (0 = all)")
	fs.BoolVar(&c.useIndex, "index", true, "use the shared tag/kind index for name-test pushdown (false: per-step column rescan; results identical)")
	fs.BoolVar(&c.useVIndex, "value-index", true, "use the value index for comparison and contains() predicates (false: per-node re-evaluation; results identical)")
	fs.BoolVar(&c.noReorder, "no-reorder", false, "disable greedy filter ordering (source-order predicate evaluation; results identical)")
	return c
}

func main() {
	cfg := registerFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xpathq [-f doc.xml] [flags] 'xpath-query'")
		os.Exit(2)
	}
	query := flag.Arg(0)

	push, ok := pushdowns[cfg.pushdown]
	if !ok {
		fmt.Fprintf(os.Stderr, "xpathq: unknown pushdown mode %q\n", cfg.pushdown)
		os.Exit(2)
	}

	var d *staircase.Document
	var err error
	if cfg.file != "" {
		d, err = staircase.Open(cfg.file)
	} else {
		d, err = staircase.Load(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpathq:", err)
		os.Exit(1)
	}

	opts := &staircase.Options{
		Pushdown:     push,
		NoIndex:      !cfg.useIndex,
		NoValueIndex: !cfg.useVIndex,
		NoReorder:    cfg.noReorder,
	}
	if cfg.explain {
		var out []byte
		if cfg.asJSON {
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
	if cfg.limit > 0 && shown > cfg.limit {
		shown = cfg.limit
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

	if cfg.stats {
		fmt.Println("\nper-step statistics:")
		for i, s := range res.Steps {
			fmt.Printf("  step %d: %-40s %6d -> %-6d  %8.3fms  pushed=%v indexed=%v\n",
				i+1, s.Step, s.InputSize, s.OutputSize,
				float64(s.Duration.Microseconds())/1000, s.Pushed, s.Indexed)
			if s.Core.Scanned > 0 {
				fmt.Printf("          staircase: pruned %d->%d, scanned %d (copied %d, compared %d), skipped %d\n",
					s.Core.ContextSize, s.Core.PrunedSize, s.Core.Scanned,
					s.Core.Copied, s.Core.Compared, s.Core.Skipped)
			}
		}
	}
}
