// Auctionwatch: the paper's motivating workload. Generate an XMark-
// style auction site, run the benchmark queries Q1/Q2 and some
// analytics with and without the early name test, and print the
// staircase join's work counters. The comparison with the paper's
// tree-unaware baselines (Experiments 1–3) is in the paper tables:
//
//	go run ./examples/auctionwatch [-size 2]
//	go test ./bench -run Paper -v
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"staircase"
)

func main() {
	size := flag.Float64("size", 2, "document size in MB")
	flag.Parse()

	fmt.Printf("generating %.1f MB auction site...\n", *size)
	d, err := staircase.GenerateXMark(*size, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nodes, height %d\n\n", d.NumNodes(), d.Height())

	// The paper's benchmark queries.
	queries := []struct{ name, q string }{
		{"Q1 (education of profiled people)", "/descendant::profile/descendant::education"},
		{"Q2 (bidders that raised)", "/descendant::increase/ancestor::bidder"},
		{"Q2 rewrite (Olteanu et al.)", "/descendant::bidder[descendant::increase]"},
		{"auctions without bids", "//open_auction[not(bidder)]"},
		{"second bid of each auction", "//open_auction/bidder[2]/increase"},
	}

	configs := []struct {
		name string
		opts staircase.Options
	}{
		{"staircase (skip+estimate)", staircase.Options{Pushdown: staircase.PushNever}},
		{"staircase + early nametest", staircase.Options{Pushdown: staircase.PushAlways}},
	}

	for _, q := range queries {
		fmt.Printf("%s\n  %s\n", q.name, q.q)
		expect := -1
		for _, cfg := range configs {
			start := time.Now()
			res, err := d.Query(q.q, &cfg.opts)
			if err != nil {
				log.Fatal(err)
			}
			dur := time.Since(start)
			if expect == -1 {
				expect = len(res.Nodes)
			} else if len(res.Nodes) != expect {
				log.Fatalf("configurations disagree: %d vs %d", len(res.Nodes), expect)
			}
			fmt.Printf("  %-28s %6d nodes  %10.3fms\n",
				cfg.name, len(res.Nodes), float64(dur.Microseconds())/1000)
		}
		fmt.Println()
	}

	// Work counters: what the staircase join actually touched for Q2.
	res, err := d.Query("/descendant::increase/ancestor::bidder",
		&staircase.Options{Pushdown: staircase.PushNever})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("staircase join work counters (Q2):")
	for i, s := range res.Steps {
		fmt.Printf("  step %d %-28s context %d -> pruned %d, scanned %d (copied %d), skipped %d\n",
			i+1, s.Step, s.Core.ContextSize, s.Core.PrunedSize,
			s.Core.Scanned, s.Core.Copied, s.Core.Skipped)
	}
	fmt.Println("\nnaive region queries and the SQL plan of Figure 3 against the staircase")
	fmt.Println("join: go test ./bench -run Paper -v")
}
