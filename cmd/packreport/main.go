// packreport renders packbench perf baselines (BENCH_*.json, schema
// packbench-perf/v1 through v8) into one self-contained static HTML
// dashboard: virtual-time and derived-telemetry trends across the
// baseline sequence, the paper's scheme-crossover model, and the
// serving-latency trend when baselines carry the service soak.
//
// Baselines are given in sequence order — the trend charts read
// left-to-right as the PR history:
//
//	packreport -o report.html BENCH_pr1.json BENCH_pr2.json ... BENCH_pr8.json
//	packreport BENCH_pr8.json            # single baseline to stdout
//
// Output is deterministic for the same inputs (no timestamps), so the
// dashboard is golden-testable and diff-friendly in review.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"packunpack/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("packreport: ")
	out := flag.String("o", "", "output HTML path (default stdout)")
	title := flag.String("title", "PACK/UNPACK performance baselines", "dashboard title")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: packreport [-o report.html] [-title s] BENCH_a.json [BENCH_b.json ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	files, err := report.LoadAll(flag.Args())
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := report.WriteHTML(w, *title, files); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "packreport: wrote %s (%d baselines)\n", *out, len(files))
	}
}
