package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"solarpred/internal/metrics"
)

// Digests of TestRunSummaryGolden's fleet: the sha256 of Run's Summary
// JSON, and the sha256 of every node's NodeResult bits in node order.
// The summary folds node values into exact sums and bucketed quantiles,
// which can absorb a last-bit change in one node; the per-node digest
// cannot.
const (
	goldenSummaryDigest = "809d7f8ea05c4769aa41f4ab7fd25da81b5984bf2955e4cf1a2d69c52e556be1"
	goldenNodesDigest   = "e7feba26b8669783f9e9781f755fe95d874927082c9929754775e69c94e2bdeb"
)

// TestRunSummaryGolden pins the fleet's output bit for bit, so a change
// to the node-slot arithmetic (harvest step, predictor, noise stream)
// that moves any result by one ulp fails here.
func TestRunSummaryGolden(t *testing.T) {
	// A small fleet with every per-node source of variation on: sensor
	// noise, hardware spread and storage leakage.
	cfg := DefaultConfig(4000)
	cfg.Sites = 8
	cfg.Days = 12
	cfg.Seed = 7
	cfg.Workers = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != goldenSummaryDigest {
		t.Errorf("summary digest %x, want %s\nsummary: %s", sum, goldenSummaryDigest, b)
	}

	norm, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	sites, err := BuildSites(norm)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(sites, norm.N)
	h := sha256.New()
	for i := 0; i < norm.Nodes; i++ {
		v, err := store.View(sites[i%norm.Sites].Name, norm.Days, norm.N)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := RunNode(&norm, i, v, metrics.PeakThreshold(v.PeakMean(), metrics.DefaultROIFraction))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%x %x %x %d %d %x %x %x %d %t %t\n",
			math.Float64bits(nr.HarvestedJ), math.Float64bits(nr.ConsumedJ), math.Float64bits(nr.WastedJ),
			nr.DownSlots, nr.Slots, math.Float64bits(nr.MeanDuty), math.Float64bits(nr.FinalFraction),
			math.Float64bits(nr.MAPE), nr.Scored, nr.Dead, nr.Degraded)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenNodesDigest {
		t.Errorf("per-node digest %s, want %s", got, goldenNodesDigest)
	}
}
