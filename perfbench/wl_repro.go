package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"time"

	"solarpred/internal/core"
	"solarpred/internal/experiments"
	"solarpred/internal/mcu"
	"solarpred/internal/optimize"
)

// reproDigest pins the sha256 of full-scale cmd/repro stdout with the
// "(N.Ns)" section timing lines removed.
const reproDigest = "3262291bb7d5f2a23f7ab6c79b5c091ba278d7f167491a8bcdd91d5592562b80"

var timingLine = regexp.MustCompile(`(?m)^\([0-9.]+s\)\n`)

// reproOutputDigest hashes repro stdout without its timing lines.
func reproOutputDigest(out []byte) string {
	sum := sha256.Sum256(timingLine.ReplaceAll(out, nil))
	return hex.EncodeToString(sum[:])
}

// reproRun is one cold exec of cmd/repro at full scale.
type reproRun struct {
	firstByte, wall time.Duration
	rssMiB          float64
	out             []byte
}

func execRepro(binDir string) (*reproRun, error) {
	cmd := exec.Command(filepath.Join(binDir, "repro"))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start repro: %w", err)
	}
	done := make(chan struct{})
	trackChild(cmd.Process, done)
	defer untrackChild(cmd.Process)
	r := bufio.NewReader(stdout)
	var out bytes.Buffer
	first, readErr := r.ReadByte()
	run := &reproRun{firstByte: time.Since(start)}
	if readErr == nil {
		out.WriteByte(first)
		_, readErr = io.Copy(&out, r)
	}
	waitErr := cmd.Wait()
	run.wall = time.Since(start)
	close(done)
	if readErr != nil && readErr != io.EOF {
		return nil, fmt.Errorf("read repro output: %w", readErr)
	}
	if waitErr != nil {
		return nil, fmt.Errorf("repro: %w", waitErr)
	}
	run.rssMiB = maxRSSMiB(cmd.ProcessState)
	run.out = out.Bytes()
	return run, nil
}

func (rep *report) checkRepro(run *reproRun) {
	rep.attempted++
	if d := reproOutputDigest(run.out); d != reproDigest {
		rep.fail("repro output digest %s, want %s", d, reproDigest)
	}
}

func reproFull(e *env) (*report, error) {
	if e.trace {
		return reproTraced(e)
	}
	rep := newReport()
	var firsts, walls, rss []float64
	start := time.Now()
	for len(walls) < 3 || time.Since(start)+time.Duration(median(walls)*1e6) <= e.seconds {
		run, err := execRepro(e.binDir)
		if err != nil {
			return nil, err
		}
		rep.checkRepro(run)
		firsts = append(firsts, run.firstByte.Seconds())
		walls = append(walls, ms(run.wall))
		rss = append(rss, run.rssMiB)
	}
	rep.metrics["setup_s"] = median(firsts)
	rep.metrics["latency_p50_ms"] = median(walls)
	rep.metrics["latency_p90_ms"] = percentile(walls, 90)
	rep.metrics["throughput_per_s"] = 1e3 / median(walls)
	rep.metrics["peak_rss_mib"] = median(rss)
	return rep, nil
}

// reproTraced runs cmd/repro's drivers in process, in its order, over
// one shared store, timing each; one cold exec of the binary is the
// untraced reference for the tracing overhead.
func reproTraced(e *env) (*report, error) {
	rep := newReport()
	run, err := execRepro(e.binDir)
	if err != nil {
		return nil, err
	}
	rep.checkRepro(run)

	tr := newTracer()
	m := rep.metrics
	cfg := experiments.DefaultConfig()
	cfg.Store = experiments.NewStore(cfg)
	n48 := 48
	start := time.Now()
	root := tr.record(0, 0, "repro", start, start)
	step := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		tr.record(0, root, name, t0, t1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = t1.Sub(t0).Seconds()
		return nil
	}
	var mcuDur time.Duration
	mcuTables := func(f func() error) error {
		d, err := timeIt(f)
		mcuDur += d
		return err
	}
	params := experiments.GuidelineParams(n48)
	steps := []struct {
		name string
		f    func() error
	}{
		{"dataset.generate_s", func() error {
			for _, site := range cfg.Sites {
				if _, err := cfg.Store.Series(site, cfg.Days); err != nil {
					return err
				}
			}
			return nil
		}},
		{"experiments.fig2_s", func() error { _, err := experiments.Fig2(cfg, cfg.Sites[0], 6); return err }},
		{"experiments.tableii_s", func() error { _, err := experiments.TableII(cfg, n48); return err }},
		{"experiments.tableiii_s", func() error { _, err := experiments.TableIII(cfg); return err }},
		{"mcu.tables_ms", func() error {
			return mcuTables(func() error {
				if _, err := mcu.TableIV(mcu.SoftFloat); err != nil {
					return err
				}
				_, _, err := mcu.Fig6(mcu.SoftFloat)
				return err
			})
		}},
		{"experiments.fig7_s", func() error { _, err := experiments.Fig7(cfg, n48); return err }},
		{"experiments.tablev_s", func() error {
			v := cfg
			v.Sites = []string{"SPMD", "ECSU", "ORNL", "HSU"}
			_, err := experiments.TableV(v)
			return err
		}},
		{"experiments.guidelines_s", func() error { _, err := experiments.Guidelines(cfg, n48); return err }},
		{"experiments.baselines_s", func() error {
			if _, err := experiments.Baselines(cfg, n48, []float64{0.1, 0.3, 0.5, 0.7, 0.9}); err != nil {
				return err
			}
			one := cfg
			one.Sites = cfg.Sites[:1]
			_, err := experiments.Baselines(one, n48, []float64{0.1, 0.3, 0.5})
			return err
		}},
		{"mcu.tables_ms", func() error {
			return mcuTables(func() error {
				for _, k := range []int{1, 2, 4, 7} {
					pp := core.Params{Alpha: 0.7, D: 20, K: k}
					if _, err := mcu.PredictionEnergyJ(pp, mcu.SoftFloat); err != nil {
						return err
					}
					if _, err := mcu.PredictionEnergyJ(pp, mcu.FixedQ16); err != nil {
						return err
					}
				}
				_, err := mcu.AlgorithmCosts(core.Params{Alpha: 0.7, D: 10, K: 2}, mcu.SoftFloat)
				return err
			})
		}},
		{"experiments.tablevi_s", func() error {
			v := cfg
			v.Sites = []string{"SPMD", "ECSU", "ORNL", "HSU"}
			v.Ns = []int{96, 48, 24}
			_, err := experiments.TableVI(v)
			return err
		}},
		{"experiments.errorbydaytype_s", func() error {
			for _, site := range cfg.Sites {
				if _, err := experiments.ErrorByDayType(cfg, site, n48, params); err != nil {
					return err
				}
			}
			return nil
		}},
		{"experiments.robustness_s", func() error { _, err := experiments.Robustness(cfg, n48); return err }},
		{"experiments.seasonal_s", func() error {
			for _, site := range cfg.Sites {
				if _, err := experiments.Seasonal(cfg, site, n48, params); err != nil {
					return err
				}
			}
			return nil
		}},
		{"mcu.tables_ms", func() error {
			return mcuTables(func() error {
				_, err := mcu.MemoryTable(core.Params{Alpha: 0.7, D: 10, K: 2})
				return err
			})
		}},
	}
	for _, s := range steps {
		if err := step(s.name, s.f); err != nil {
			return nil, err
		}
	}
	end := time.Now()
	tr.spans[root-1].End = end.Sub(tr.origin).Nanoseconds()
	m["mcu.tables_ms"] = ms(mcuDur)
	st := cfg.Store.Stats()
	m["expstore.grid_misses"] = float64(st.Grid.Misses)
	m["expstore.grid_hit_ratio"] = float64(st.Grid.Hits) / float64(st.Grid.Hits+st.Grid.Misses)
	m["trace.overhead_pct"] = (end.Sub(start).Seconds() - run.wall.Seconds()) / run.wall.Seconds() * 100

	// One cold grid search per N on a cached evaluator, outside the store's
	// grid cache.
	for _, n := range sampleNs {
		ev, err := cfg.Store.Eval(cfg.Sites[0], cfg.Days, n, cfg.EvalOptions())
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := ev.GridSearch(cfg.Space, optimize.RefSlotMean); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.record(1, 0, "optimize.gridsearch", t0, t1)
		m[fmt.Sprintf("optimize.gridsearch_ms.n%d", n)] = ms(t1.Sub(t0))
	}
	rep.spans = tr.spans
	return rep, nil
}
