// Command ardabench regenerates the ARDA paper's evaluation tables and
// figures on the synthetic corpora, printing each in a layout mirroring the
// paper and optionally writing the combined report to a file (the source of
// EXPERIMENTS.md).
//
// Usage:
//
//	ardabench                      # run everything at full scale
//	ardabench -exp fig3,table1     # selected experiments
//	ardabench -quick               # reduced scale (same settings as benches)
//	ardabench -out EXPERIMENTS.md  # also write the report to a file
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/arda-ml/arda/internal/cli"
	"github.com/arda-ml/arda/internal/experiments"
	"github.com/arda-ml/arda/internal/parallel"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiments: fig3, fig4, fig5, fig6, table1, table2, table3, table4, table5, table6, ablation, extensions, all")
		quick   = flag.Bool("quick", false, "run at reduced scale")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "also write the report to this file")
		workers = flag.Int("workers", 0, "max parallel workers (0 = all cores); results are identical for any value")
		verbose = flag.Bool("v", false, "stream experiment progress to stderr")
	)
	flag.Parse()
	cli.Setup("ardabench", *verbose)
	parallel.SetMaxWorkers(*workers)

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	var report strings.Builder
	emit := func(s string) {
		fmt.Print(s)
		fmt.Println()
		report.WriteString(s)
		report.WriteString("\n")
	}

	start := time.Now()
	var t1 *experiments.Table1Result
	var micro *experiments.MicroResult

	if all || want["fig3"] {
		run("Figure 3", func() error {
			r, err := experiments.Figure3(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			emit(r.RenderChart())
			return nil
		})
	}
	if all || want["table1"] || want["fig4"] {
		run("Table 1 / Figure 4", func() error {
			r, err := experiments.Table1(scale, *seed)
			if err != nil {
				return err
			}
			t1 = r
			if all || want["table1"] {
				emit(r.Render())
			}
			if all || want["fig4"] {
				emit(r.RenderFigure4())
			}
			return nil
		})
	}
	if all || want["table2"] {
		run("Table 2", func() error {
			r, err := experiments.Table2(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			return nil
		})
	}
	if all || want["table3"] {
		run("Table 3", func() error {
			r, err := experiments.Table3(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			return nil
		})
	}
	if all || want["fig5"] {
		run("Figure 5", func() error {
			r, err := experiments.Figure5(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			return nil
		})
	}
	if all || want["table4"] {
		run("Table 4", func() error {
			r, err := experiments.Table4(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			return nil
		})
	}
	if all || want["table5"] {
		run("Table 5", func() error {
			r, err := experiments.Table5(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			return nil
		})
	}
	if all || want["table6"] || want["fig6"] {
		run("Table 6 / Figure 6", func() error {
			r, err := experiments.RunMicros(scale, *seed)
			if err != nil {
				return err
			}
			micro = r
			if all || want["table6"] {
				emit(r.RenderTable6())
			}
			if all || want["fig6"] {
				emit(r.RenderFigure6())
				emit(r.RenderChart())
			}
			return nil
		})
	}
	if all || want["extensions"] {
		run("Extensions", func() error {
			r, err := experiments.Extensions(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			return nil
		})
	}
	if all || want["ablation"] {
		run("RIFS ablation", func() error {
			r, err := experiments.RIFSAblation(scale, *seed)
			if err != nil {
				return err
			}
			emit(r.Render())
			return nil
		})
	}
	_ = t1
	_ = micro
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Second))

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			cli.Fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
}

// run executes one experiment with timing and fatal error handling.
func run(name string, f func() error) {
	start := time.Now()
	fmt.Printf("== %s ==\n", name)
	cli.Progressf("starting %s", name)
	if err := f(); err != nil {
		cli.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
}
