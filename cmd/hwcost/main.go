// Command hwcost prints the paper's Fig. 5: a timeline of the
// sampling/prediction state machine on the MSP430F1611 energy model, with
// the full-day energy per phase. cmd/repro prints the other hardware-cost
// artefacts (Table IV, Fig. 6 and the RAM table).
//
// Usage:
//
//	hwcost                       # N=48, soft-float model (paper platform)
//	hwcost -n 24 -model fixed-q16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"solarpred/internal/core"
	"solarpred/internal/mcu"
	"solarpred/internal/report"
)

func main() {
	modelName := flag.String("model", "soft-float", "cost model: soft-float (paper platform) or fixed-q16")
	n := flag.Int("n", 48, "samples per day")
	flag.Parse()

	if err := run(os.Stdout, *modelName, *n); err != nil {
		fmt.Fprintln(os.Stderr, "hwcost:", err)
		os.Exit(1)
	}
}

func pickModel(name string) (mcu.CostModel, error) {
	switch name {
	case "soft-float":
		return mcu.SoftFloat, nil
	case "fixed-q16":
		return mcu.FixedQ16, nil
	default:
		return mcu.CostModel{}, fmt.Errorf("unknown cost model %q", name)
	}
}

// run prints the first events of the Fig. 5 timeline at n samples per day
// and the full-day energy per phase.
func run(w io.Writer, modelName string, n int) error {
	model, err := pickModel(modelName)
	if err != nil {
		return err
	}
	params := core.Params{Alpha: 0.7, D: 20, K: 2}
	tl, err := mcu.Simulate(n, params, model)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 5 state machine, N=%d, %s model — first two sampling periods:\n\n", n, model.Name)
	limit := 8
	if len(tl.Events) < limit {
		limit = len(tl.Events)
	}
	t := report.NewTable("", "t (s)", "phase", "duration", "energy")
	for _, e := range tl.Events[:limit] {
		t.AddRow(
			fmt.Sprintf("%9.3f", e.StartS),
			e.Phase.String(),
			fmt.Sprintf("%.6gs", e.Duration),
			fmt.Sprintf("%.3g J", e.EnergyJ),
		)
	}
	fmt.Fprintln(w, t.String())
	by := tl.EnergyByPhase()
	fmt.Fprintf(w, "full-day totals: sleep %.1f mJ, vref %.2f mJ, adc %.3f mJ, predict %.3f mJ (total %.1f mJ)\n",
		by[mcu.PhaseDeepSleep]*1e3, by[mcu.PhaseVrefSettle]*1e3,
		by[mcu.PhaseADCConvert]*1e3, by[mcu.PhasePredict]*1e3, tl.TotalEnergyJ()*1e3)
	return nil
}
