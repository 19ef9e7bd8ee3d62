// Command experiments regenerates the tables and figures of the Graphsurge
// paper's evaluation (§7) on the synthetic stand-in datasets. Each
// sub-command reproduces one table or figure; "all" runs everything in
// order.
//
// Usage:
//
//	experiments [-scale f] [-workers n] <table2|fig6|fig7|table3|table4|fig8|fig9|fig10|all>
//
// Scale 1.0 (the default) targets minutes per experiment on one laptop
// core; larger scales sharpen the shapes at the cost of runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"graphsurge/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	workers := flag.Int("workers", 1, "dataflow workers per run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-scale f] [-workers n] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: table2 fig6 fig7 table3 table4 fig8 fig9 fig10 all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	ctx := context.Background()
	cfg := experiments.Config{Scale: *scale, Workers: *workers, Out: os.Stdout}
	runners := map[string]func(context.Context, experiments.Config) error{
		"table2": wrap(experiments.Table2),
		"fig6":   wrap(experiments.Fig6),
		"fig7":   wrap(experiments.Fig7),
		"table3": wrap(experiments.Table3),
		"table4": wrap(experiments.Table4),
		"fig8":   wrap(experiments.Fig8),
		"fig9":   wrap(experiments.Fig9),
		"fig10":  wrap(experiments.Fig10),
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, n := range []string{"table2", "fig6", "fig7", "table3", "table4", "fig8", "fig9", "fig10"} {
			if err := run(ctx, n, runners[n], cfg); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", n, err)
				os.Exit(1)
			}
		}
		return
	}
	r, ok := runners[name]
	if !ok {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(ctx, name, r, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, f func(context.Context, experiments.Config) error, cfg experiments.Config) error {
	start := time.Now()
	if err := f(ctx, cfg); err != nil {
		return err
	}
	fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

// wrap adapts the typed experiment functions to a common signature.
func wrap[T any](f func(context.Context, experiments.Config) ([]T, error)) func(context.Context, experiments.Config) error {
	return func(ctx context.Context, cfg experiments.Config) error {
		_, err := f(ctx, cfg)
		return err
	}
}
