package runcfg

import (
	"encoding/json"
	"flag"
	"io"
	"testing"

	"repro/internal/market"
	"repro/internal/portfolio"
)

func TestBindFlagsDefaultsArePaperConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	rc := f.Config()
	want := RunConfig{Seed: 42, HighUtil: 0.85, WarningSec: 120}
	if rc != want {
		t.Fatalf("defaults = %+v, want %+v", rc, want)
	}
}

func TestBindFlagsParsesOverrides(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := BindFlags(fs)
	args := []string{
		"-quick", "-seed", "7", "-parallelism", "4", "-high-util", "0.7",
		"-warning", "30", "-warm-start=false",
		"-risk", "-risk-quantile", "0.95", "-risk-halflife", "12",
		"-anchor-min", "0.3", "-sentinel",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	rc := f.Config()
	want := RunConfig{
		Quick: true, Seed: 7, Parallelism: 4, HighUtil: 0.7, WarningSec: 30,
		ColdStart: true, Risk: true,
		RiskQuantile: 0.95, RiskHalfLife: 12, AnchorMin: 0.3, Sentinel: true,
	}
	if rc != want {
		t.Fatalf("parsed = %+v, want %+v", rc, want)
	}
}

// The planner has no KKT system any more, so -kkt is an unknown flag on
// every binary that binds the shared set.
func TestConfigRejectsBadKKT(t *testing.T) {
	for name, bind := range map[string]func(*flag.FlagSet) *Flags{
		"full": BindFlags, "daemon": BindDaemonFlags,
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bind(fs)
		if err := fs.Parse([]string{"-kkt", "sparse"}); err == nil {
			t.Errorf("%s flag set accepted -kkt", name)
		}
	}
}

func TestDaemonFlagsOmitRunShapeKnobs(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	BindDaemonFlags(fs)
	for _, name := range []string{"quick", "warning"} {
		if fs.Lookup(name) != nil {
			t.Errorf("daemon flag set must not define -%s", name)
		}
	}
	for _, name := range []string{"seed", "high-util", "sentinel", "risk"} {
		if fs.Lookup(name) == nil {
			t.Errorf("daemon flag set missing -%s", name)
		}
	}
}

func TestRunSeedDefault(t *testing.T) {
	if got := (RunConfig{}).RunSeed(); got != 42 {
		t.Fatalf("zero-value seed = %d, want 42", got)
	}
	if got := (RunConfig{Seed: 7}).RunSeed(); got != 7 {
		t.Fatalf("seed override = %d, want 7", got)
	}
}

func TestAnchorNeedsOnDemandMarket(t *testing.T) {
	allSpot := &market.Catalog{Markets: []*market.Market{{Transient: true}}}
	mixed := &market.Catalog{Markets: []*market.Market{{Transient: true}, {Transient: false}}}
	o := RunConfig{AnchorMin: 0.25}
	if cfg := o.Anchor(portfolio.Config{}, allSpot); cfg.AMinOnDemand != 0 {
		t.Fatalf("anchor applied on all-spot catalog: %v", cfg.AMinOnDemand)
	}
	if cfg := o.Anchor(portfolio.Config{}, mixed); cfg.AMinOnDemand != 0.25 {
		t.Fatalf("anchor not applied on mixed catalog: %v", cfg.AMinOnDemand)
	}
}

func TestZeroValueMarshalsEmpty(t *testing.T) {
	data, err := json.Marshal(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Fatalf("zero RunConfig marshals to %s, want {} (absent fields mean paper defaults)", data)
	}
}
