package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/ipet"
	"repro/internal/malardalen"
	"repro/internal/program"
)

// directFMMs solves the query's fault miss maps without the engine:
// one ComputeFMM call per map, with the query's own mechanism, on a
// system warmed by the query's fault-free WCET solve. precise is nil
// unless the query asks for the precise SRB analysis, data unless it
// has a data cache.
func directFMMs(t *testing.T, p *program.Program, q Query) (fmm, precise, data ipet.FMM) {
	t.Helper()
	sys, err := ipet.NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	a := absint.New(p, q.Cache)
	base := a.ClassifyAll()
	var da *absint.Analyzer
	var dbase []chmc.Class
	if q.DataCache != nil {
		da = absint.NewData(p, *q.DataCache)
		dbase = da.ClassifyAll()
	}
	if _, err := ipet.WCETCombined(sys, a, base, da, dbase); err != nil {
		t.Fatal(err)
	}
	solve := func(a *absint.Analyzer, base []chmc.Class, opt ipet.FMMOptions) ipet.FMM {
		t.Helper()
		fmm, err := ipet.ComputeFMM(sys, a, base, opt)
		if err != nil {
			t.Fatal(err)
		}
		return fmm
	}
	opt := ipet.FMMOptions{Mechanism: q.Mechanism}
	if q.Mechanism == cache.MechanismSRB {
		opt.SRBHit = a.ClassifySRB()
	}
	fmm = solve(a, base, opt)
	if q.PreciseSRB && q.Mechanism == cache.MechanismSRB {
		precise = solve(a, base, ipet.FMMOptions{Mechanism: q.Mechanism, PreciseSRB: true})
	}
	if da != nil {
		dopt := ipet.FMMOptions{Mechanism: q.Mechanism}
		if q.Mechanism == cache.MechanismSRB {
			dopt.SRBHit = da.ClassifySRB()
		}
		data = solve(da, dbase, dopt)
	}
	return fmm, precise, data
}

// TestEngineFMMMatchesDirectSolve pins the engine's FMM splicing — the
// shared f < W columns plus one memoized f = W column per mechanism —
// against solving each map directly with the query's mechanism, for
// None, RW and SRB, the precise SRB column and a data cache, on the
// paper cache and a 256-set cache. Every query runs on one engine, so
// later queries splice from columns earlier ones memoized.
func TestEngineFMMMatchesDirectSolve(t *testing.T) {
	dcfg := dcacheConfig()
	mechs := []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB}
	for _, cfg := range []cache.Config{
		cache.PaperConfig(),
		{Sets: 256, Ways: 4, BlockBytes: 16, HitLatency: 1, MemLatency: 100},
	} {
		for _, p := range []*program.Program{malardalen.MustGet("crc"), buildDataProgram()} {
			var queries []Query
			for _, mech := range mechs {
				queries = append(queries,
					Query{Cache: cfg, Pfail: 1e-4, Mechanism: mech},
					Query{Cache: cfg, Pfail: 1e-4, Mechanism: mech, DataCache: &dcfg})
			}
			queries = append(queries, Query{Cache: cfg, Pfail: 1e-4, Mechanism: cache.MechanismSRB, PreciseSRB: true})
			e, err := NewEngine(p, EngineOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				label := fmt.Sprintf("%s/sets=%d/%v/precise=%v/data=%v", p.Name, cfg.Sets, q.Mechanism, q.PreciseSRB, q.DataCache != nil)
				res, err := e.Analyze(q)
				if err != nil {
					t.Fatal(err)
				}
				fmm, precise, data := directFMMs(t, p, q)
				if !reflect.DeepEqual(res.FMM, fmm) {
					t.Errorf("%s: engine FMM differs from the direct solve", label)
				}
				if !reflect.DeepEqual(res.FMMPrecise, precise) {
					t.Errorf("%s: engine precise FMM differs from the direct solve", label)
				}
				if !reflect.DeepEqual(res.DataFMM, data) {
					t.Errorf("%s: engine data FMM differs from the direct solve", label)
				}
			}
		}
	}
}
