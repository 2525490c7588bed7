package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// updateGolden regenerates the fixtures under testdata/golden:
//
//	go test ./internal/experiments -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/golden")

// goldenTolerance is the field-by-field agreement the fixtures pin. It
// matches the repo's established float-association tolerance (online vs
// vectorized evaluation).
const goldenTolerance = 1e-9

// goldenConfig returns the quick-scale configuration the fixtures pin,
// all subtests sharing one experiment store the way cmd/repro does.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	cfg := QuickConfig()
	cfg.Store = sharedGoldenStore
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

var sharedGoldenStore = QuickConfig().Store

// checkGolden compares got against the named fixture field by field
// within goldenTolerance, or rewrites the fixture under -update.
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("marshal live result (NaN/Inf must not reach a golden row): %v", err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	wantRaw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -update): %v", path, err)
	}
	var want, live any
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if err := json.Unmarshal(data, &live); err != nil {
		t.Fatal(err)
	}
	compareTrees(t, name, live, want)
}

// compareTrees walks two decoded JSON trees in lockstep, comparing
// numeric leaves within goldenTolerance and everything else exactly. loc
// names the path for failure messages.
func compareTrees(t *testing.T, loc string, got, want any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: got %T, fixture has object", loc, got)
			return
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				t.Errorf("%s.%s: field missing from live result", loc, k)
				continue
			}
			compareTrees(t, loc+"."+k, gv, w[k])
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				t.Errorf("%s.%s: field missing from fixture (regenerate with -update)", loc, k)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			t.Errorf("%s: got %T, fixture has array", loc, got)
			return
		}
		if len(g) != len(w) {
			t.Errorf("%s: length %d, fixture %d", loc, len(g), len(w))
			return
		}
		for i := range w {
			compareTrees(t, fmt.Sprintf("%s[%d]", loc, i), g[i], w[i])
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			t.Errorf("%s: got %T (%v), fixture has number %v", loc, got, got, w)
			return
		}
		if diff := math.Abs(g - w); diff > goldenTolerance*(1+math.Max(math.Abs(g), math.Abs(w))) {
			t.Errorf("%s: %.*g, fixture %.*g (|Δ| = %.3g)", loc, 17, g, 17, w, diff)
		}
	default:
		if got != want {
			t.Errorf("%s: %v, fixture %v", loc, got, want)
		}
	}
}

func TestGoldenTableII(t *testing.T) {
	rows, err := TableII(goldenConfig(t), 48)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tableii.json", rows)
}

func TestGoldenTableIII(t *testing.T) {
	rows, err := TableIII(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tableiii.json", rows)
}

func TestGoldenTableV(t *testing.T) {
	rows, err := TableV(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tablev.json", rows)
}

func TestGoldenFig7(t *testing.T) {
	series, err := Fig7(goldenConfig(t), 48)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7.json", series)
}

func TestGoldenGuidelines(t *testing.T) {
	gs, err := Guidelines(goldenConfig(t), 48)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "guidelines.json", gs)
}

func TestGoldenTableVI(t *testing.T) {
	rows, err := TableVI(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tablevi.json", rows)
}
