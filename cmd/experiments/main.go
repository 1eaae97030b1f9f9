// Command experiments reproduces every table and figure from the
// paper's evaluation and prints a report suitable for EXPERIMENTS.md.
//
// Usage:
//
//	experiments            # run everything
//	experiments -only fig13a,fig15b
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"blinkradar/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		only = flag.String("only", "", "comma-separated experiment names (default all)")
		list = flag.Bool("list", false, "list experiment names and exit")
	)
	flag.Parse()

	exps := experiments.All()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-20s %s\n", e.Name, e.Desc)
		}
		return
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(n)] = true
		}
		known := map[string]bool{}
		for _, e := range exps {
			known[e.Name] = true
		}
		var unknown []string
		for n := range selected {
			if !known[n] {
				unknown = append(unknown, n)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			log.Fatalf("unknown experiments: %s", strings.Join(unknown, ", "))
		}
	}

	start := time.Now()
	for _, e := range exps {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		t0 := time.Now()
		res, err := e.Run()
		if err != nil {
			log.Fatalf("%s failed: %v", e.Name, err)
		}
		fmt.Printf("=== %s — %s (%.1fs)\n%s\n\n", e.Name, e.Desc, time.Since(t0).Seconds(), res)
	}
	fmt.Printf("total runtime: %.1fs\n", time.Since(start).Seconds())
}
