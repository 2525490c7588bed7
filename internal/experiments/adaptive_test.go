package experiments

import (
	"math"
	"math/rand"
	"testing"

	"solarpred/internal/adaptive"
	"solarpred/internal/optimize"
)

func TestTableVI(t *testing.T) {
	cfg := quick()
	cfg.Ns = []int{24}
	rows, err := TableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Sites) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Degenerate {
			continue
		}
		if len(r.Policies) != 4 {
			t.Fatalf("%s: %d policies", r.Site, len(r.Policies))
		}
		if r.Oracle >= r.Static {
			t.Errorf("%s: oracle %.4f not below static %.4f", r.Site, r.Oracle, r.Static)
		}
		for _, p := range r.Policies {
			if p.Report.MAPE < r.Oracle-1e-9 {
				t.Errorf("%s/%s: beats oracle", r.Site, p.Policy)
			}
			// Realizable self-tuning must stay within 30 % of the
			// hindsight-best static configuration on these traces.
			if p.Report.MAPE > r.Static*1.3 {
				t.Errorf("%s/%s: %.4f far above static %.4f", r.Site, p.Policy, p.Report.MAPE, r.Static)
			}
		}
	}
}

func TestTableVIDegenerate(t *testing.T) {
	cfg := quick()
	cfg.Sites = []string{"SPMD"}
	cfg.Ns = []int{288}
	rows, err := TableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Degenerate || len(rows[0].Policies) != 0 {
		t.Errorf("degenerate row = %+v", rows[0])
	}
}

func TestPolicyNamesCount(t *testing.T) {
	if len(PolicyNames()) != 4 {
		t.Error("policy name list out of sync")
	}
}

// TestAdaptiveSharedPassMatchesSinglePasses checks that scoring every
// Table VI policy in one AdaptiveEval pass gives each policy exactly the
// result of a pass of its own, bit for bit, over the quick universe
// (every non-degenerate site × N of QuickConfig) and a shuffled
// candidate grid, so no code path relies on alpha-major order.
func TestAdaptiveSharedPassMatchesSinglePasses(t *testing.T) {
	cfg := goldenConfig(t)
	cands, err := adaptive.Grid(cfg.Space.Alphas, cfg.Space.Ks)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(cands), func(i, j int) {
		cands[i], cands[j] = cands[j], cands[i]
	})
	for _, job := range crossSitesNs(cfg.Sites, cfg.Ns) {
		if deg, err := Degenerate(job.site, job.n); err != nil || deg {
			continue
		}
		e, _, err := cfg.evalFor(job.site, job.n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cfg.gridFor(job.site, job.n, optimize.RefSlotMean)
		if err != nil {
			t.Fatal(err)
		}
		d := res.Best.Params.D
		shared, err := buildPolicies(len(cands), job.n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.AdaptiveEval(d, cands, optimize.RefSlotMean, shared...)
		if err != nil {
			t.Fatal(err)
		}
		single, err := buildPolicies(len(cands), job.n)
		if err != nil {
			t.Fatal(err)
		}
		for i, sel := range single {
			want, err := e.AdaptiveEval(d, cands, optimize.RefSlotMean, sel)
			if err != nil {
				t.Fatal(err)
			}
			g, w := got[i], want[0]
			label := job.site + "/" + sel.Name()
			if g.Policy != w.Policy || g.SwitchCount != w.SwitchCount || g.FinalCandidate != w.FinalCandidate {
				t.Errorf("N=%d %s: shared %+v, single %+v", job.n, label, g, w)
			}
			gr, wr := g.Report, w.Report
			for _, f := range []struct {
				name string
				g, w float64
			}{
				{"MAPE", gr.MAPE, wr.MAPE}, {"RMSE", gr.RMSE, wr.RMSE}, {"MAE", gr.MAE, wr.MAE},
				{"MBE", gr.MBE, wr.MBE}, {"MaxAbsErr", gr.MaxAbsErr, wr.MaxAbsErr},
			} {
				if math.Float64bits(f.g) != math.Float64bits(f.w) {
					t.Errorf("N=%d %s: %s shared %v, single %v", job.n, label, f.name, f.g, f.w)
				}
			}
			if gr.Samples != wr.Samples || gr.OutsideROI != wr.OutsideROI {
				t.Errorf("N=%d %s: counts shared %d/%d, single %d/%d", job.n, label,
					gr.Samples, gr.OutsideROI, wr.Samples, wr.OutsideROI)
			}
		}
	}
}
