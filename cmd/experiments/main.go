// Command experiments regenerates the paper's tables and figures as text
// tables (and optionally CSV files). Each experiment ID corresponds to one
// table or figure of the paper; `experiments -list` prints the index.
//
// Usage:
//
//	experiments                 # run everything at quick scale
//	experiments -run Fig48      # one experiment
//	experiments -scale full     # paper-scale corpora (slow)
//	experiments -csv out/       # also write CSV files per table
//	experiments -parallelism 4  # bound training/ranking goroutines
//
// Every experiment's completion line reports wall-clock time plus the
// objective evaluations each trainer performed and its evals/sec — the
// hardware-independent training-cost proxy, and the number that moves when
// the distance kernel gets faster.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"milret/internal/core"
	"milret/internal/experiments"
)

func main() {
	runID := flag.String("run", "all", "experiment ID to run, or 'all'")
	scale := flag.String("scale", "quick", "scale: quick, full or bench")
	seed := flag.Int64("seed", 1998, "master seed for corpora and splits")
	csvDir := flag.String("csv", "", "directory to also write per-table CSV files")
	parallelism := flag.Int("parallelism", 0, "bound concurrent training/ranking goroutines (0 = NumCPU)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.ID)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed}
	switch *scale {
	case "quick":
		cfg.Scale = experiments.QuickScale()
	case "full":
		cfg.Scale = experiments.FullScale()
	case "bench":
		cfg.Scale = experiments.BenchScale()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (quick|full|bench)\n", *scale)
		os.Exit(2)
	}
	if *parallelism > 0 {
		cfg.Scale.Parallelism = *parallelism
	}

	var ids []string
	if *runID == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*runID, ",")
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	exitCode := 0
	for _, id := range ids {
		start := time.Now()
		dd0, emdd0 := core.TrainerEvals()
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			exitCode = 1
			continue
		}
		for ti, t := range tables {
			if err := t.Format(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
				exitCode = 1
			}
			if *csvDir != "" {
				name := t.ID
				if len(tables) > 1 {
					name = fmt.Sprintf("%s_%d", t.ID, ti)
				}
				f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
				if err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					exitCode = 1
					continue
				}
				if err := t.CSV(f); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					exitCode = 1
				}
				f.Close()
			}
		}
		elapsed := time.Since(start)
		dd1, emdd1 := core.TrainerEvals()
		fmt.Printf("-- %s completed in %v%s --\n\n",
			id, elapsed.Round(time.Millisecond), trainerStats(elapsed, dd1-dd0, emdd1-emdd0))
	}
	os.Exit(exitCode)
}

// trainerStats renders per-trainer objective-evaluation counts and rates
// for one experiment, or "" when the experiment trained nothing.
func trainerStats(elapsed time.Duration, dd, emdd int64) string {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	var parts []string
	if dd > 0 {
		parts = append(parts, fmt.Sprintf("DD %d evals (%.0f evals/sec)", dd, float64(dd)/secs))
	}
	if emdd > 0 {
		parts = append(parts, fmt.Sprintf("EM-DD %d evals (%.0f evals/sec)", emdd, float64(emdd)/secs))
	}
	if len(parts) == 0 {
		return ""
	}
	return " — " + strings.Join(parts, ", ")
}
