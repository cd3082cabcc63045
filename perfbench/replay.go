package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/ipet"
	"repro/internal/program"
)

// Stage names of the replay, in the order core.Analyze runs them. Each
// is a span name and the prefix of its per-layer metric.
const (
	stSystem    = "ipet.system"
	stClassify  = "absint.classify"
	stSRB       = "absint.srb"
	stWCET      = "ipet.wcet"
	stFMM       = "ipet.fmm"
	stHitBound  = "ipet.hitbound"
	stModel     = "fault.model"
	stBinomial  = "fault.binomial"
	stBuild     = "dist.build"
	stReduce    = "dist.reduce"
	stReduceAlt = "dist.reduce.alt"
	stFoldConv  = "dist.fold_convolve"
	stFoldCoars = "dist.fold_coarsen"
	stQuantile  = "dist.quantile"
)

// artifactStages are the stages an Engine memoizes; every other stage
// runs on each query.
var artifactStages = map[string]bool{
	stSystem: true, stClassify: true, stSRB: true, stWCET: true, stFMM: true, stHitBound: true,
}

// replayed is the outcome of one stage replay.
type replayed struct {
	ff, pwcet int64
	// stages is the wall time of each stage of this query.
	stages map[string]time.Duration
	// binomialAtoms counts the atoms fault.BinomialPoints produced;
	// coarsenIn/coarsenOut count atoms entering and leaving every
	// CoarsenToWith call.
	binomialAtoms, coarsenIn, coarsenOut int64
	// reduce1 and reduceN time the same ConvolveAllWith inputs at one
	// worker and at nproc workers.
	reduce1, reduceN time.Duration
}

// replayer re-runs a query through the layers' public functions, in
// the order core.Analyze composes them, recording every stage as a
// child span of one query span. Its result must equal the engine's: it
// is both the trace's source of per-stage time and an independent
// composition check.
type replayer struct {
	rec *recorder
	// artifactWorkers bounds the per-set ILP stages (the engine's
	// Workers); stageWorkers the reduction the workload's queries run
	// with (1 inside a fanned-out batch, nproc for single queries).
	artifactWorkers, stageWorkers, nproc int
	// replays counts replay calls.
	replays int
}

func (rp *replayer) replay(p *program.Program, q core.Query, req int) (*replayed, error) {
	root := rp.rec.begin("replay.query", 0, req)
	defer rp.rec.end(root)
	out := &replayed{stages: map[string]time.Duration{}}
	stage := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		d := time.Since(start)
		rp.rec.add(name, root, req, start, d)
		out.stages[name] += d
		return err
	}

	cfg := q.Cache
	if cfg == (cache.Config{}) {
		cfg = cache.PaperConfig()
	}
	target := q.TargetExceedance
	if target == 0 {
		target = core.DefaultTargetExceedance
	}
	maxSupport := q.MaxSupport
	if maxSupport == 0 {
		maxSupport = core.DefaultMaxSupport
	}
	kind, pfail, lambda := fault.KindPermanent, q.Pfail, 0.0
	if q.Scenario != nil {
		kind = q.Scenario.Kind()
		pfail, lambda = fault.Components(q.Scenario)
	}

	var sys *ipet.System
	if err := stage(stSystem, func() (err error) { sys, err = ipet.NewSystem(p); return err }); err != nil {
		return nil, err
	}
	var a *absint.Analyzer
	var base []chmc.Class
	_ = stage(stClassify, func() error { a = absint.New(p, cfg); base = a.ClassifyAll(); return nil })
	var wres *ipet.WCETResult
	if err := stage(stWCET, func() (err error) { wres, err = ipet.WCET(sys, a, base); return err }); err != nil {
		return nil, err
	}
	out.ff = wres.WCET

	var fmm ipet.FMM
	if kind != fault.KindTransient {
		fopt := ipet.FMMOptions{Mechanism: q.Mechanism, Workers: rp.artifactWorkers}
		if q.Mechanism == cache.MechanismSRB {
			_ = stage(stSRB, func() error { fopt.SRBHit = a.ClassifySRB(); return nil })
		}
		if err := stage(stFMM, func() (err error) { fmm, err = ipet.ComputeFMM(sys, a, base, fopt); return err }); err != nil {
			return nil, err
		}
	}
	var hb ipet.HitBounds
	if kind != fault.KindPermanent {
		err := stage(stHitBound, func() (err error) {
			hb, err = ipet.ComputeHitBounds(sys, a, base, ipet.HitBoundOptions{Workers: rp.artifactWorkers})
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// reduce runs the parallel reduction tree at the workload's stage
	// workers (the recorded stage) and again at the other worker count
	// (for dist.reduce_speedup), checking both give the same atoms.
	other := rp.nproc
	if rp.stageWorkers != 1 {
		other = 1
	}
	// The two reductions alternate in order from one replay to the
	// next, so neither side always runs on the colder cache.
	rp.replays++
	altFirst := rp.replays%2 == 0
	reduce := func(perSet []*dist.Dist) (*dist.Dist, error) {
		timed := func(workers int) (*dist.Dist, time.Time, time.Duration) {
			start := time.Now()
			d := dist.ConvolveAllWith(perSet, maxSupport, workers, q.Coarsen)
			return d, start, time.Since(start)
		}
		if other == rp.stageWorkers {
			total, start, d := timed(rp.stageWorkers)
			rp.rec.add(stReduce, root, req, start, d)
			out.stages[stReduce] += d
			return total, nil
		}
		var alt, total *dist.Dist
		var altStart, start time.Time
		var dAlt, d time.Duration
		if altFirst {
			alt, altStart, dAlt = timed(other)
		}
		total, start, d = timed(rp.stageWorkers)
		if !altFirst {
			alt, altStart, dAlt = timed(other)
		}
		rp.rec.add(stReduce, root, req, start, d)
		rp.rec.add(stReduceAlt, root, req, altStart, dAlt)
		out.stages[stReduce] += d
		if !slices.Equal(alt.Points(), total.Points()) {
			return nil, fmt.Errorf("ConvolveAllWith differs between %d and %d workers", rp.stageWorkers, other)
		}
		if other == 1 {
			out.reduce1, out.reduceN = out.reduce1+dAlt, out.reduceN+d
		} else {
			out.reduce1, out.reduceN = out.reduce1+d, out.reduceN+dAlt
		}
		return total, nil
	}
	fold := func(acc, total *dist.Dist) *dist.Dist {
		var c *dist.Dist
		_ = stage(stFoldConv, func() error { c = acc.Convolve(total); return nil })
		out.coarsenIn += int64(c.Len())
		_ = stage(stFoldCoars, func() error { c = c.CoarsenToWith(maxSupport, q.Coarsen); return nil })
		out.coarsenOut += int64(c.Len())
		return c
	}

	// The artifact stages allocate heavily; collecting their garbage now,
	// untimed, keeps it from landing on the per-query stages below, which
	// a warm engine runs without it.
	runtime.GC()
	penalty := dist.Degenerate(0)
	if fmm != nil {
		var pwf []float64
		err := stage(stModel, func() error {
			model, err := fault.NewModel(pfail, cfg)
			if err != nil {
				return err
			}
			if q.Mechanism == cache.MechanismRW {
				pwf = fault.PWFReliableWay(cfg.Ways, model.PBF)
			} else {
				pwf = fault.PWF(cfg.Ways, model.PBF)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		perSet := make([]*dist.Dist, cfg.Sets)
		err = stage(stBuild, func() error {
			for s := range perSet {
				pts := make([]dist.Point, 0, len(pwf))
				for f, prob := range pwf {
					pts = append(pts, dist.Point{Value: fmm[s][f] * cfg.MissPenalty(), Prob: prob})
				}
				d, err := dist.New(pts)
				if err != nil {
					return fmt.Errorf("set %d penalty distribution: %w", s, err)
				}
				perSet[s] = d
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		total, err := reduce(perSet)
		if err != nil {
			return nil, err
		}
		penalty = fold(penalty, total)
	}
	if hb != nil {
		var tm fault.TransientModel
		err := stage(stModel, func() (err error) {
			window := out.ff + penalty.Max() + cfg.MissPenalty()*hb.Total()
			tm, err = fault.NewTransientModel(lambda, window)
			return err
		})
		if err != nil {
			return nil, err
		}
		if tm.PMiss != 0 {
			points := make([][]dist.Point, len(hb))
			err := stage(stBinomial, func() error {
				for s, n := range hb {
					pts, err := fault.BinomialPoints(n, tm.PMiss, cfg.MissPenalty())
					if err != nil {
						return fmt.Errorf("set %d transient distribution: %w", s, err)
					}
					points[s] = pts
					out.binomialAtoms += int64(len(pts))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			perSet := make([]*dist.Dist, len(hb))
			err = stage(stBuild, func() error {
				for s, pts := range points {
					d, err := dist.New(pts)
					if err != nil {
						return fmt.Errorf("set %d transient distribution: %w", s, err)
					}
					out.coarsenIn += int64(d.Len())
					perSet[s] = d.CoarsenToWith(maxSupport, q.Coarsen)
					out.coarsenOut += int64(perSet[s].Len())
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			total, err := reduce(perSet)
			if err != nil {
				return nil, err
			}
			penalty = fold(penalty, total)
		}
	}
	var quantile int64
	_ = stage(stQuantile, func() error { quantile = penalty.QuantileExceedance(target); return nil })
	out.pwcet = out.ff + quantile
	return out, nil
}
