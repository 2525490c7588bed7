package experiments

import (
	"testing"

	"solarpred/internal/cloud"
	"solarpred/internal/core"
)

func TestErrorByDayType(t *testing.T) {
	cfg := quick()
	cfg.Days = 80 // enough days to see several of each type
	params := core.Params{Alpha: 0.6, D: 10, K: 2}
	res, err := ErrorByDayType(cfg, "SPMD", 24, params)
	if err != nil {
		t.Fatal(err)
	}
	var totalDays int
	for _, d := range res.Days {
		totalDays += d
	}
	if totalDays == 0 {
		t.Fatal("no days classified")
	}
	// Clear days must be far easier to predict than mixed days on a
	// continental site (if both types occurred).
	if res.Days[cloud.Clear] > 3 && res.Days[cloud.Mixed] > 3 {
		if res.MAPE[cloud.Clear] >= res.MAPE[cloud.Mixed] {
			t.Errorf("clear-day MAPE %.4f should be below mixed-day %.4f",
				res.MAPE[cloud.Clear], res.MAPE[cloud.Mixed])
		}
	}
	for i, m := range res.MAPE {
		if m < 0 || m > 2 {
			t.Errorf("type %d MAPE %.4f implausible", i, m)
		}
	}
}

func TestErrorByDayTypeValidation(t *testing.T) {
	cfg := quick()
	if _, err := ErrorByDayType(cfg, "NOPE", 24, core.Params{Alpha: 0.5, D: 5, K: 1}); err == nil {
		t.Error("unknown site accepted")
	}
}
