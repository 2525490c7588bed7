package core

import (
	"fmt"
	"math"
)

// DynamicGrid is the candidate set the clairvoyant selector chooses from.
// The paper uses 0 ≤ α ≤ 1 in steps of 0.1 and 1 ≤ K ≤ 6.
type DynamicGrid struct {
	Alphas []float64
	Ks     []int
}

// DefaultDynamicGrid returns the paper's candidate grid.
func DefaultDynamicGrid() DynamicGrid {
	alphas := make([]float64, 11)
	for i := range alphas {
		alphas[i] = float64(i) / 10
	}
	return DynamicGrid{Alphas: alphas, Ks: []int{1, 2, 3, 4, 5, 6}}
}

// Validate checks the grid is non-empty and in range.
func (g DynamicGrid) Validate() error {
	if len(g.Alphas) == 0 || len(g.Ks) == 0 {
		return fmt.Errorf("core: dynamic grid must have at least one alpha and one K")
	}
	for _, a := range g.Alphas {
		if a < 0 || a > 1 || math.IsNaN(a) {
			return fmt.Errorf("core: dynamic grid alpha %.3f out of [0,1]", a)
		}
	}
	for _, k := range g.Ks {
		if k < 1 {
			return fmt.Errorf("core: dynamic grid K %d < 1", k)
		}
	}
	return nil
}
