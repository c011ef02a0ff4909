// Command spotweb-sim regenerates the paper's tables and figures. Each
// experiment id maps to one table/figure of the evaluation (§6); see
// DESIGN.md for the index.
//
// Usage:
//
//	spotweb-sim -exp fig6b [-quick] [-seed 42] [-workload wiki|vod]
//	spotweb-sim -exp all
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/runcfg"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: table1, fig3, fig4a, fig4cd, fig5, fig6a, fig6b, tv4, fig7a, fig7b, padding, all")
	workload := flag.String("workload", "wiki", "workload for fig6b: wiki or vod")
	rcFlags := runcfg.BindFlags(flag.CommandLine)
	fedFlags := federation.BindFlags(flag.CommandLine)
	fedOut := flag.String("fed-out", "", "write the federation scaling benchmark as JSON to this file (with -federation)")
	flag.Parse()

	opt := rcFlags.Config()

	// Route the dense linear algebra through the same pool as the solvers;
	// results are bit-identical at any width.
	linalg.SetPool(parallel.PoolFor(opt.Parallelism))
	w := os.Stdout

	// -federation runs the federated-planner scaling benchmark directly (it
	// is its own experiment, sized by the federation flags, and the evidence
	// behind BENCH_fed.json).
	if fedFlags.Enabled() {
		if err := experiments.FedScale(w, opt, experiments.FedScaleOptions{
			Regions: fedFlags.Regions, AZs: fedFlags.AZs, Types: fedFlags.Types,
			Rounds: fedFlags.Rounds, OutFile: *fedOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	run := func(id string) bool {
		switch id {
		case "table1":
			experiments.Table1(w)
		case "fig3a", "fig3b", "fig3":
			experiments.Fig3Traces(w, opt)
		case "fig4a":
			experiments.Fig4a(w, opt)
		case "fig4a-sim":
			experiments.Fig4aSim(w, opt)
		case "fig4c", "fig4d", "fig4cd", "padding":
			experiments.Fig4cd(w, opt)
		case "fig5", "fig5a", "fig5b", "fig5c", "fig5d":
			experiments.Fig5(w, opt)
		case "fig6a":
			experiments.Fig6a(w, opt)
		case "fig6b":
			experiments.Fig6b(w, opt, *workload)
		case "tv4":
			experiments.Fig6b(w, opt, "vod")
		case "fig7a":
			experiments.Fig7a(w, opt)
		case "fig7b":
			experiments.Fig7b(w, opt)
		case "ablation-churn":
			experiments.AblationChurn(w, opt)
		case "ablation-padding":
			experiments.AblationPadding(w, opt)
		case "ablation-risk":
			experiments.AblationRisk(w, opt)
		case "startup":
			experiments.DiscussionStartupDelay(w, opt)
		case "google":
			experiments.DiscussionGoogleCloud(w, opt)
		case "predictors":
			experiments.PredictorComparison(w, opt)
		case "ablation-longreq":
			experiments.AblationLongRequests(w, opt)
		default:
			return false
		}
		return true
	}

	if *exp == "all" {
		for _, id := range []string{"table1", "fig3", "fig4a", "fig4a-sim", "fig4cd", "fig5",
			"fig6a", "fig6b", "tv4", "fig7a", "fig7b",
			"ablation-churn", "ablation-padding", "ablation-risk", "ablation-longreq", "startup", "google", "predictors"} {
			fmt.Fprintf(w, "\n===== %s =====\n", id)
			run(id)
		}
		return
	}
	if !run(*exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
