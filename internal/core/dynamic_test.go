package core

import "testing"

func TestDefaultDynamicGrid(t *testing.T) {
	g := DefaultDynamicGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Alphas) != 11 || g.Alphas[0] != 0 || g.Alphas[10] != 1 {
		t.Errorf("alphas = %v", g.Alphas)
	}
	if len(g.Ks) != 6 || g.Ks[0] != 1 || g.Ks[5] != 6 {
		t.Errorf("ks = %v", g.Ks)
	}
}

func TestDynamicGridValidate(t *testing.T) {
	bad := []DynamicGrid{
		{},
		{Alphas: []float64{0.5}},
		{Ks: []int{1}},
		{Alphas: []float64{-0.1}, Ks: []int{1}},
		{Alphas: []float64{1.1}, Ks: []int{1}},
		{Alphas: []float64{0.5}, Ks: []int{0}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
}
