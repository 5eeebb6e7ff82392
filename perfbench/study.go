package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"vasppower/internal/experiments"
	"vasppower/internal/memo/diskcache"
	"vasppower/internal/obs"
	"vasppower/internal/par"
)

// unit is one runner of the paper study, rendered the way powerstudy
// prints it (without its timing line).
type unit struct {
	name string
	run  func(cfg experiments.Config) (string, error)
}

func render[R interface{ Render() string }](f func(experiments.Config) (R, error)) func(experiments.Config) (string, error) {
	return func(cfg experiments.Config) (string, error) {
		r, err := f(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// studyUnits is powerstudy's default experiment list: all 19 units.
func studyUnits() []unit {
	return []unit{
		{"table1", render(experiments.RunTableI)},
		{"fig1", render(experiments.RunFig1)},
		{"fig2", render(experiments.RunFig2)},
		{"fig3", render(experiments.RunFig3)},
		{"fig45", func(cfg experiments.Config) (string, error) {
			r, err := experiments.RunScaling(cfg)
			if err != nil {
				return "", err
			}
			lo, hi := r.ModeRange()
			return fmt.Sprintf("%s\n%s\nmode range %v %v", r.Fig4Render(), r.Fig5Render(), lo, hi), nil
		}},
		{"fig6", render(experiments.RunFig6)},
		{"fig7", render(experiments.RunFig7)},
		{"fig8", render(experiments.RunFig8)},
		{"fig9", render(experiments.RunFig9)},
		{"fig1012", func(cfg experiments.Config) (string, error) {
			r, err := experiments.RunCapStudy(cfg)
			if err != nil {
				return "", err
			}
			return r.Fig10Render() + "\n" + r.Fig12Render(), nil
		}},
		{"fig11", render(experiments.RunFig11)},
		{"fig13", render(experiments.RunFig13)},
		{"exta", render(experiments.RunExtScheduler)},
		{"extb", render(experiments.RunExtRepeats)},
		{"extc", render(experiments.RunExtC)},
		{"extd", render(experiments.RunExtD)},
		{"exte", render(experiments.RunExtE)},
		{"extf", render(experiments.RunExtF)},
		{"extg", render(experiments.RunExtG)},
	}
}

// paperConfig is the paper-faithful study configuration: the paper's
// seed and 5 repeats. The run's --seed does not enter it: the study is
// one fixed input, and its noise seed changes how much work some
// runners do (exta's scheduling, for one), which would show up as
// run-to-run spread.
func paperConfig() experiments.Config {
	c := experiments.DefaultConfig()
	c.Workers = workers
	return c
}

// study runs the full paper study per pass. Memory-only (warm false):
// both cache tiers are cleared before each pass, so every measurement
// computes. Warm: set-up is a cold pass that fills a disk cache, and
// each timed pass clears only the memory tier, so every lookup reads
// disk.
type study struct {
	warm  bool
	units []unit

	ref  []string // renders of the latest set-up pass
	out  []string
	durs []float64
	errs []error

	dir      string // warm: disk cache directory
	store    *diskcache.Store
	reg      *obs.Registry
	missesAt int64

	// Tracing (nil rec = untraced): runner spans nest under parent, and
	// the program's own "measure" spans under each runner.
	rec    *recorder
	parent int64
}

func newStudy(warm bool) *study {
	u := studyUnits()
	return &study{
		warm: warm, units: u, reg: obs.NewRegistry(),
		out: make([]string, len(u)), durs: make([]float64, len(u)), errs: make([]error, len(u)),
	}
}

func (s *study) setup() error {
	s.close()
	if s.warm {
		dir, err := os.MkdirTemp("", "perfbench-warm-")
		if err != nil {
			return err
		}
		s.dir = dir
		if s.store, err = experiments.EnableDiskCache(dir, 0); err != nil {
			return err
		}
		s.store.Instrument(diskcache.NewMetrics(s.reg, "diskcache"))
	}
	if err := experiments.ResetCacheAll(); err != nil {
		return err
	}
	if err := s.runUnits(); err != nil {
		return err
	}
	for i, err := range s.errs {
		if err != nil {
			return fmt.Errorf("%s: %w", s.units[i].name, err)
		}
	}
	s.ref = append(s.ref[:0], s.out...)
	return nil
}

func (s *study) prepare(int) error {
	if s.warm {
		// Re-attach the disk counters: experiments.Instrument(nil), which
		// the traced suite calls between passes, detaches them.
		s.store.Instrument(diskcache.NewMetrics(s.reg, "diskcache"))
		s.missesAt = s.reg.Counter("diskcache.misses").Value()
		experiments.ResetCache()
		return nil
	}
	return experiments.ResetCacheAll()
}

func (s *study) pass(int) error { return s.runUnits() }

// runUnits runs every unit through the program's worker pool, as
// powerstudy does, keeping each unit's render, duration and error.
func (s *study) runUnits() error {
	return par.ForEach(context.Background(), workers, len(s.units), func(_ context.Context, i int) error {
		cfg := paperConfig()
		if s.rec != nil {
			id := s.rec.start("experiments."+s.units[i].name, s.parent)
			defer s.rec.end(id)
			cfg.Obs = &obs.Obs{Metrics: s.reg, Tracer: obs.NewTracer(obsSink{s.rec, id})}
		}
		t0 := time.Now()
		s.out[i], s.errs[i] = s.units[i].run(cfg)
		s.durs[i] = float64(time.Since(t0)) / 1e6
		return nil
	})
}

// check verifies each unit: no error and a render byte-identical to
// the set-up pass's. On the warm workload a disk miss (a measurement
// that recomputed) fails the whole pass.
func (s *study) check(int) (passOut, error) {
	out := passOut{work: len(s.units)}
	misses := s.reg.Counter("diskcache.misses").Value() - s.missesAt
	for i := range s.units {
		out.attempted++
		if s.errs[i] == nil && s.out[i] == s.ref[i] && misses == 0 {
			out.ok++
		} else if s.errs[i] != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.units[i].name, s.errs[i])
		}
	}
	return out, nil
}

func (s *study) close() {
	if s.dir != "" {
		experiments.DisableDiskCache()
		os.RemoveAll(s.dir)
		s.dir, s.store = "", nil
	}
}
