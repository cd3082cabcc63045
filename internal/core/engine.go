package core

// This file implements the session layer of the analysis: a reusable
// Engine that memoizes the program- and cache-level artifacts of the
// pipeline so that sweeps — the paper's whole evaluation is sweeps over
// pfail points, mechanisms, exceedance targets and cache geometries —
// pay for CFG construction, the Must/May/Persistence fixpoints, the
// IPET system, the fault-free WCET and the per-set FMM ILP solves
// exactly once per distinct configuration, instead of once per query.
//
// Artifact layers and their keys:
//
//   - program level (NewEngine): loop-metadata verification,
//     reducibility check, the IPET constraint system with its phase-1
//     simplex basis;
//   - per (cache config, reference kind): the abstract-interpretation
//     analyzer with its classification fixpoints, and lazily the SRB
//     guaranteed-hit classification;
//   - per (instruction cache, optional data cache): a warm System
//     clone pivoted by exactly the fault-free WCET solve, plus the
//     WCET result itself;
//   - per (context, reference kind, FMM artifact): the
//     mechanism-independent f < W FMM columns (one ILP solve per set
//     and fault count) and the three flavours of the f = W column
//     (none, SRB, precise SRB), from which any mechanism's FMM is
//     spliced without further solves;
//   - per context: the transient hit-bound vector (one ILP solve per
//     set), shared by every transient and combined scenario — the
//     bound does not depend on lambda, pfail or mechanism, so a lambda
//     sweep computes it exactly once.
//
// A Query then only performs the cheap per-query work: the fault model
// of equation 1, the probability weighting of equations 2/3, the
// penalty convolution, and the quantile read-off. Every artifact is a
// pure function of its key, so batch scheduling can never change any
// result; AnalyzeBatch results are byte-identical to independent
// Analyze calls whatever the worker count or completion order.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/chmc"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/faultpoint"
	"repro/internal/ipet"
	"repro/internal/program"
)

// Query selects one analysis configuration to run against an Engine's
// program. The zero value of each field selects the same default as the
// corresponding Options field (paper cache, 1e-15 target, 4096 support
// cap); Workers is not part of a Query — parallelism belongs to the
// Engine, and results never depend on it.
type Query struct {
	// Cache is the instruction-cache geometry. Zero value = PaperConfig.
	Cache cache.Config
	// Pfail is the per-bit permanent failure probability — the legacy
	// spelling of Scenario = fault.Permanent{Pfail} (see
	// Options.Pfail).
	Pfail float64
	// Scenario selects the fault environment (see Options.Scenario).
	// nil defaults to fault.Permanent{Pfail: Pfail}. Scenario
	// parameters only shape the per-query probability weighting: the
	// memoized artifacts they read (classification, WCET, FMM columns,
	// transient hit bounds) are scenario-independent, so a lambda or
	// pfail sweep computes each artifact exactly once.
	Scenario fault.Scenario
	// Mechanism selects the reliability hardware (None, RW, SRB).
	Mechanism cache.Mechanism
	// TargetExceedance is the probability at which the pWCET is read
	// (default 1e-15).
	TargetExceedance float64
	// MaxSupport caps the convolution support size (default 4096).
	MaxSupport int
	// Coarsen selects the coarsening strategy enforcing MaxSupport
	// (zero value: dist.CoarsenLeastError). The strategy only shapes
	// the per-query distribution stage, which is never memoized: every
	// cached artifact (classification, WCET, FMM) is a pure function of
	// keys the strategy is not part of BECAUSE it cannot influence them
	// — fault-miss counts are convolution-free. Two queries differing
	// only in Coarsen therefore share every artifact and still can
	// never alias each other's distributions or results (asserted by
	// TestEngineCoarsenStrategyNoAliasing).
	Coarsen dist.CoarsenStrategy
	// PreciseSRB enables the refined SRB analysis (mixture bound).
	PreciseSRB bool
	// DataCache, when non-nil, additionally analyzes data accesses
	// against this configuration (not combinable with PreciseSRB).
	DataCache *cache.Config
	// SoftDeadline, when positive, arms the degraded mode: if one
	// attempt of the query does not finish within this duration, the
	// engine retries with a geometrically tighter MaxSupport cap
	// (quartering down to a floor of 16 support points) and marks the
	// result Degraded instead of failing. The final floor attempt runs
	// without the soft deadline, so a query only fails outright when
	// the caller's own context expires. Degradation is sound:
	// coarsening is tail-preserving, so every degraded pWCET
	// upper-bounds the exact one (see Result.Degraded). Zero disables
	// the mechanism — queries run to completion at full precision.
	//
	// SoftDeadline is not part of any memo key: artifacts computed by a
	// degraded attempt are the same pure functions of their keys as
	// always, and the per-query distribution stage is never memoized.
	SoftDeadline time.Duration
}

// options converts the query to the equivalent one-shot Options.
func (q Query) options(workers int) Options {
	return Options{
		Cache:            q.Cache,
		Pfail:            q.Pfail,
		Scenario:         q.Scenario,
		Mechanism:        q.Mechanism,
		TargetExceedance: q.TargetExceedance,
		MaxSupport:       q.MaxSupport,
		Coarsen:          q.Coarsen,
		PreciseSRB:       q.PreciseSRB,
		DataCache:        q.DataCache,
		Workers:          workers,
	}
}

// queryOf converts one-shot Options to the equivalent Query.
func queryOf(o Options) Query {
	return Query{
		Cache:            o.Cache,
		Pfail:            o.Pfail,
		Scenario:         o.Scenario,
		Mechanism:        o.Mechanism,
		TargetExceedance: o.TargetExceedance,
		MaxSupport:       o.MaxSupport,
		Coarsen:          o.Coarsen,
		PreciseSRB:       o.PreciseSRB,
		DataCache:        o.DataCache,
	}
}

// Artifact identifies one class of memoized computation. Hook callbacks
// receive the artifact kind so tests and monitoring can count how often
// the expensive stages actually run.
type Artifact int

const (
	// ArtifactClassification is the Must/May/Persistence fixpoints and
	// CHMC classification of one cache configuration.
	ArtifactClassification Artifact = iota
	// ArtifactSRBClassification is the SRB guaranteed-hit fixpoint.
	ArtifactSRBClassification
	// ArtifactWCET is the fault-free IPET WCET solve of one
	// (instruction cache, data cache) context.
	ArtifactWCET
	// ArtifactFMMCore is the mechanism-independent f < W columns of the
	// fault miss map (one ILP solve per set and fault count).
	ArtifactFMMCore
	// ArtifactFMMColumn is one flavour of the f = W column; the event's
	// Mechanism and Precise fields identify which.
	ArtifactFMMColumn
	// ArtifactTransientBound is the per-set transient hit-bound vector
	// (one ILP solve per set), shared by every transient and combined
	// scenario of one context — the bound is independent of lambda,
	// pfail and mechanism.
	ArtifactTransientBound
)

// String names the artifact kind for logs and test failures.
func (a Artifact) String() string {
	switch a {
	case ArtifactClassification:
		return "classification"
	case ArtifactSRBClassification:
		return "srb-classification"
	case ArtifactWCET:
		return "wcet"
	case ArtifactFMMCore:
		return "fmm-core"
	case ArtifactFMMColumn:
		return "fmm-column"
	case ArtifactTransientBound:
		return "transient-bound"
	default:
		return fmt.Sprintf("artifact(%d)", int(a))
	}
}

// ArtifactEvent describes one artifact computation (not a cache hit).
type ArtifactEvent struct {
	// Artifact is the kind of computation that ran.
	Artifact Artifact
	// Cache is the cache configuration the artifact belongs to.
	Cache cache.Config
	// Data marks artifacts of a data-cache reference stream.
	Data bool
	// Mechanism qualifies ArtifactFMMColumn events (None or SRB).
	Mechanism cache.Mechanism
	// Precise marks the precise-SRB f = W column.
	Precise bool
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers bounds the goroutines used by the per-set stages of each
	// analysis and by AnalyzeBatch's query scheduling. 0 means
	// GOMAXPROCS, 1 is fully sequential; negative values are rejected.
	// When a batch fans out at query level, each query's own
	// distribution stages run sequentially (the pool is already
	// saturated), so the bound is not multiplied. Results are
	// byte-identical for every worker count.
	Workers int
	// Hook, when non-nil, is called once per artifact actually computed
	// (memo hits do not fire it). Calls may come from any worker
	// goroutine; the callback must be safe for concurrent use.
	Hook func(ArtifactEvent)
	// Reference builds every artifact on the retained reference
	// implementations (dense simplex, map-based abstract domain) —
	// see Options.Reference. Bit-identical results, much slower;
	// for differential validation only.
	Reference bool
	// ExactConvolve routes every query's penalty reduction through the
	// retained reference convolution executor — see
	// Options.ExactConvolve. The convolution analogue of Reference:
	// byte-identical results whenever no coarsening binds, final-
	// coarsen-only semantics (no in-tree coarsening) when it does.
	ExactConvolve bool
	// MaxArtifactBytes bounds the estimated resident bytes of the
	// engine's memoized artifacts (classification fixpoints, warm IPET
	// contexts, FMM columns). When an artifact computation pushes the
	// estimate over the budget, least-recently-used artifacts are
	// evicted and recomputed on next use — eviction is behavior-
	// invariant (evicted artifacts are pure functions of their keys, so
	// recomputation is byte-identical; asserted by the eviction tests)
	// and changes only memory and wall-clock time, never any result.
	// The pinned working set of one in-flight query is the effective
	// floor: budgets below it still behave correctly, evicting
	// everything between queries.
	//
	// <= 0 (the zero value) keeps the historical behavior: every
	// artifact is retained for the lifetime of the Engine, unbounded.
	// Long-lived processes serving many programs or cache geometries
	// (e.g. internal/serve's engine pool) should set a budget.
	MaxArtifactBytes int64
}

// Engine is a reusable analysis session for one program. It memoizes
// every expensive artifact (see the file comment for the layering), so
// repeated Analyze calls and AnalyzeBatch sweeps that vary only pfail,
// mechanism or target skip straight to the cheap probability weighting.
//
// An Engine is safe for concurrent use; all memoized artifacts are pure
// functions of their keys, so results are byte-identical to independent
// one-shot Analyze calls with the same Workers setting, in any order.
// By default memoized artifacts are retained for the lifetime of the
// Engine (unbounded memory); EngineOptions.MaxArtifactBytes bounds the
// estimated resident total with LRU eviction, trading recomputation for
// memory without ever changing a result. MemStats reports the resident
// estimate and the hit/miss/eviction counters.
type Engine struct {
	p        *program.Program
	workers  int
	hook     func(ArtifactEvent)
	ref      bool
	exact    bool
	maxBytes int64
	pristine *ipet.System

	// poisoned is set when a query panicked inside the engine (see
	// PanicError): internal memo state may be partially constructed, so
	// every later call fails fast with ErrPoisoned instead of touching
	// it. panicVal retains the first panic for the error message.
	poisoned atomic.Bool
	panicVal atomic.Pointer[PanicError]

	mu      sync.Mutex
	classes map[classKey]*cell[*classEntry]
	ctxs    map[ctxKey]*cell[*ctxEntry]

	// Artifact-memory accounting (see memory.go), guarded by mu.
	lruHead, lruTail *memoNode
	resident         int64
	artifacts        int
	hits, misses     uint64
	evictions        uint64
	evictedBytes     int64
}

// cell is the memo slot of one artifact, the single memoization
// mechanism of the engine: its value is filled exactly once and is
// read-only afterwards. node is the artifact's LRU/accounting handle; a
// failed fill is never charged, so its node never enters the LRU.
type cell[V any] struct {
	once sync.Once
	node *memoNode
	val  V
	err  error
}

// fill computes the cell's value exactly once. A successful fill
// charges the computed byte cost to n (the cell's own node, or the
// node of the artifact whose lifetime it shares) and emits ev; a failed
// one charges and emits nothing.
func (c *cell[V]) fill(e *Engine, n *memoNode, ev ArtifactEvent, compute func() (V, int64, error)) error {
	c.once.Do(func() {
		var cost int64
		c.val, cost, c.err = compute()
		if c.err != nil {
			return
		}
		e.mu.Lock()
		e.chargeLocked(n, cost)
		e.mu.Unlock()
		e.emit(ev)
	})
	return c.err
}

// slot is where an owner keeps one artifact's cell: an engine map entry
// or a field of a context. load and store run with Engine.mu held;
// storing nil removes the cell. release, when set, runs after an
// evicted cell is removed and lets go of what its value holds.
type slot[V any] struct {
	load    func() *cell[V]
	store   func(*cell[V])
	release func(V)
}

func mapSlot[K comparable, V any](m map[K]*cell[V], k K) slot[V] {
	return slot[V]{
		load: func() *cell[V] { return m[k] },
		store: func(c *cell[V]) {
			if c == nil {
				delete(m, k)
			} else {
				m[k] = c
			}
		},
	}
}

func fieldSlot[V any](p **cell[V]) slot[V] {
	return slot[V]{
		load:  func() *cell[V] { return *p },
		store: func(c *cell[V]) { *p = c },
	}
}

// pinKind is the pin a memo lookup takes on the cell for its caller.
type pinKind int

const (
	// noPin: FMM columns and hit bounds, read by a query that already
	// pins their context.
	noPin pinKind = iota
	// queryPin: a WCET context, held by the query until releaseCtx.
	queryPin
	// depPin: a classification, held by the context that references it
	// until that context is evicted or fails.
	depPin
)

// memo is the find/fill/retry path of every memoized artifact. Genuine
// errors are properties of the key and stay sticky; a cancellation
// error is a property of the context of whichever query filled the
// cell, so the cell is removed from its owner and a caller whose own
// context is still live retries against a fresh cell. On success the
// returned cell carries the lookup's pin; on error no pin is held.
func memo[V any](e *Engine, qctx context.Context, at slot[V], pin pinKind, ev ArtifactEvent, compute func() (V, int64, error)) (*cell[V], error) {
	for {
		c, err := memoOnce(e, at, pin, ev, compute)
		if err == nil || !isCancelErr(err) || qctx.Err() != nil {
			return c, err
		}
	}
}

func memoOnce[V any](e *Engine, at slot[V], pin pinKind, ev ArtifactEvent, compute func() (V, int64, error)) (c *cell[V], err error) {
	e.mu.Lock()
	c = at.load()
	if c == nil {
		c = &cell[V]{}
		c.node = &memoNode{drop: func(e *Engine) {
			if at.load() == c {
				at.store(nil)
			}
			if at.release != nil && c.err == nil {
				at.release(c.val)
			}
		}}
		at.store(c)
		e.misses++
	} else {
		e.hits++
		e.touchLocked(c.node)
	}
	c.node.pin(pin, 1)
	e.mu.Unlock()
	// An error or a panic inside the fill (recovered into engine
	// poisoning by analyzeOnce) hands the caller no artifact to hold, so
	// the lookup's pin is dropped here, and a canceled cell leaves its
	// owner so the next lookup creates a fresh one.
	ok := false
	defer func() {
		if ok {
			return
		}
		e.mu.Lock()
		if isCancelErr(err) {
			c.node.drop(e)
		}
		c.node.pin(pin, -1)
		e.evictLocked()
		e.mu.Unlock()
	}()
	err = c.fill(e, c.node, ev, compute)
	ok = err == nil
	return c, err
}

// classKey identifies one classification artifact: a cache geometry
// applied to one of the program's two reference streams.
type classKey struct {
	cfg  cache.Config
	data bool
}

// classEntry is the value of one classification cell: the analyzer and
// its classification, plus the lazily computed SRB guaranteed-hit
// vector, whose bytes are charged to the classification's node (it
// shares that artifact's lifetime and key).
type classEntry struct {
	a    *absint.Analyzer
	base []chmc.Class
	srb  cell[[]bool]
}

// ctxKey identifies one WCET context: the instruction cache plus the
// optional data cache (the combined objective pivots the simplex
// differently, so contexts with and without a data cache are distinct).
type ctxKey struct {
	icfg    cache.Config
	dcfg    cache.Config
	hasData bool
}

// ctxEntry is the value of one context cell: the warm system, the WCET
// and the context's own FMM and hit-bound cells. The fmms and hb slots
// are guarded by Engine.mu.
type ctxEntry struct {
	ic, dc *cell[*classEntry]
	sys    *ipet.System
	wcet   *ipet.WCETResult

	// fmms is indexed by fmmKind, then by reference stream (0
	// instruction, 1 data).
	fmms [fmmPreciseColumn + 1][2]*cell[ipet.FMM]
	// hb is the transient hit-bound vector, needed only by transient
	// and combined queries.
	hb *cell[ipet.HitBounds]
}

// fmmKind selects one memoized FMM artifact of a context.
type fmmKind int

const (
	// fmmCore is the mechanism-independent f < W columns (computed with
	// MechanismRW, which skips the f = W solve entirely).
	fmmCore fmmKind = iota
	// fmmNoneColumn is the unprotected f = W column.
	fmmNoneColumn
	// fmmSRBColumn is the SRB-filtered f = W column.
	fmmSRBColumn
	// fmmPreciseColumn is the precise-SRB f = W column.
	fmmPreciseColumn
)

// NewEngine builds an analysis session for the program: it verifies the
// loop metadata and reducibility once, constructs the IPET constraint
// system and runs simplex phase 1. Everything else is computed lazily
// and memoized as queries need it.
func NewEngine(p *program.Program, opt EngineOptions) (*Engine, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("core: Workers %d is negative (0 means GOMAXPROCS)", opt.Workers)
	}
	if faultpoint.Enabled {
		if err := faultpoint.Hit(faultpoint.SiteEngineBuild); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	// Soundness gate, identical to Analyze: IPET loop-bound constraints
	// are only valid for verified natural loops on a reducible CFG.
	if err := cfg.VerifyLoopMetadata(p); err != nil {
		return nil, fmt.Errorf("core: %s: %w", p.Name, err)
	}
	if !cfg.Reducible(p) {
		return nil, fmt.Errorf("core: %s: irreducible control flow", p.Name)
	}
	newSystem := ipet.NewSystem
	if opt.Reference {
		newSystem = ipet.NewReferenceSystem
	}
	sys, err := newSystem(p)
	if err != nil {
		return nil, err
	}
	return &Engine{
		p:        p,
		workers:  opt.Workers,
		hook:     opt.Hook,
		ref:      opt.Reference,
		exact:    opt.ExactConvolve,
		maxBytes: opt.MaxArtifactBytes,
		pristine: sys,
		classes:  make(map[classKey]*cell[*classEntry]),
		ctxs:     make(map[ctxKey]*cell[*ctxEntry]),
	}, nil
}

// Program returns the program the engine analyzes.
func (e *Engine) Program() *program.Program { return e.p }

// Workers returns the engine's worker bound (0 means GOMAXPROCS).
func (e *Engine) Workers() int { return e.workers }

func (e *Engine) emit(ev ArtifactEvent) {
	if e.hook != nil {
		e.hook(ev)
	}
}

// class returns the memoized classification of one cache configuration,
// computing the fixpoints on first use. The cell is pinned for the
// caller — class is only called from context construction, and the
// resulting context holds the pin until it is itself evicted (or its
// construction fails), so a resident context can never reference an
// evicted, unaccounted classification.
func (e *Engine) class(cfg cache.Config, data bool) *cell[*classEntry] {
	ev := ArtifactEvent{Artifact: ArtifactClassification, Cache: cfg, Data: data}
	c, _ := memo(e, context.Background(), mapSlot(e.classes, classKey{cfg: cfg, data: data}), depPin, ev,
		func() (*classEntry, int64, error) {
			var a *absint.Analyzer
			switch {
			case data && e.ref:
				a = absint.NewDataReference(e.p, cfg)
			case data:
				a = absint.NewData(e.p, cfg)
			case e.ref:
				a = absint.NewReference(e.p, cfg)
			default:
				a = absint.New(e.p, cfg)
			}
			ce := &classEntry{a: a, base: a.ClassifyAll()}
			return ce, a.MemBytes() + int64(cap(ce.base)), nil
		})
	return c
}

// srb returns the memoized SRB guaranteed-hit classification, charged
// onto the owning classification's node.
func (e *Engine) srb(c *cell[*classEntry], data bool) []bool {
	a := c.val.a
	ev := ArtifactEvent{Artifact: ArtifactSRBClassification, Cache: a.Config(), Data: data}
	c.val.srb.fill(e, c.node, ev, func() ([]bool, int64, error) {
		hit := a.ClassifySRB()
		return hit, int64(cap(hit)), nil
	})
	return c.val.srb.val
}

// context returns the memoized WCET context of the query's cache pair:
// a private System warmed by exactly the fault-free WCET solve a
// one-shot Analyze would run, and the WCET result. The returned cell is
// pinned for the calling query — it cannot be evicted while the
// analysis uses it. The caller must releaseCtx it (analyze defers
// this); on error no pin is held.
func (e *Engine) context(qctx context.Context, icfg cache.Config, dcfg *cache.Config) (*cell[*ctxEntry], error) {
	key := ctxKey{icfg: icfg}
	if dcfg != nil {
		key.dcfg, key.hasData = *dcfg, true
	}
	at := mapSlot(e.ctxs, key)
	at.release = e.releaseCtxDepsLocked
	ev := ArtifactEvent{Artifact: ArtifactWCET, Cache: icfg, Data: key.hasData}
	return memo(e, qctx, at, queryPin, ev, func() (*ctxEntry, int64, error) {
		ce := &ctxEntry{ic: e.class(icfg, false)} // pins the classification until ctx eviction
		if key.hasData {
			ce.dc = e.class(key.dcfg, true)
		}
		// The clone starts from the pristine phase-1 basis, exactly like
		// a fresh NewSystem; the WCET solve below pivots only this
		// clone, so it is the context's sole warm-up — afterwards the
		// system is only ever read (ComputeFMM workers clone from it).
		ce.sys = e.pristine.Clone()
		var da *absint.Analyzer
		var dbase []chmc.Class
		if ce.dc != nil {
			da, dbase = ce.dc.val.a, ce.dc.val.base
		}
		if qctx.Done() != nil {
			// Abandon the WCET solve between pivot batches when the
			// creating query's context dies; cleared below so the warm
			// system never retains a dead query's probe.
			ce.sys.SetCancel(qctx.Err)
		}
		wcet, err := ipet.WCETCombined(ce.sys, ce.ic.val.a, ce.ic.val.base, da, dbase)
		ce.sys.SetCancel(nil)
		if err != nil {
			// A failed context is never charged or evicted, so it must
			// not keep its classifications pinned.
			e.mu.Lock()
			e.unpinClassesLocked(ce)
			e.mu.Unlock()
			return nil, 0, err
		}
		ce.wcet = wcet
		return ce, ce.sys.WarmMemBytes() + int64(cap(wcet.BlockCounts))*8, nil
	})
}

// releaseCtx drops a query's pin on its context and enforces the byte
// budget now that the query's working set is no longer pinned.
func (e *Engine) releaseCtx(c *cell[*ctxEntry]) {
	e.mu.Lock()
	c.node.pin(queryPin, -1)
	e.evictLocked()
	e.mu.Unlock()
}

// unpinClassesLocked releases the context's pins on its classification
// cells (on context eviction, or when construction failed).
func (e *Engine) unpinClassesLocked(ce *ctxEntry) {
	ce.ic.node.pin(depPin, -1)
	if ce.dc != nil {
		ce.dc.node.pin(depPin, -1)
	}
}

// releaseCtxDepsLocked runs when a context is evicted: it releases the
// classification pins and evicts the context's resident FMM and
// hit-bound artifacts along with it.
func (e *Engine) releaseCtxDepsLocked(ce *ctxEntry) {
	e.unpinClassesLocked(ce)
	for _, byStream := range ce.fmms {
		for _, c := range byStream {
			if c != nil && c.node.linked {
				e.evictNodeLocked(c.node)
			}
		}
	}
	if ce.hb != nil && ce.hb.node.linked {
		e.evictNodeLocked(ce.hb.node)
	}
}

// fmmArtifact returns one memoized FMM artifact of the context. The
// caller must hold a pin on the context (analyze does, for the whole
// query), which keeps the context — though not necessarily this FMM
// cell — resident while the artifact is computed and read.
func (e *Engine) fmmArtifact(qctx context.Context, ce *ctxEntry, kind fmmKind, data bool) (ipet.FMM, error) {
	c, stream := ce.ic, 0
	if data {
		c, stream = ce.dc, 1
	}
	opt := ipet.FMMOptions{Workers: e.workers}
	if qctx.Done() != nil {
		opt.Ctx = qctx // per-set and pivot-batch cancellation checks
	}
	ev := ArtifactEvent{Artifact: ArtifactFMMColumn, Cache: c.val.a.Config(), Data: data}
	switch kind {
	case fmmCore:
		// MechanismRW never reaches the f = W column, so its FMM is
		// exactly the mechanism-independent f < W columns.
		opt.Mechanism = cache.MechanismRW
		ev.Artifact, ev.Mechanism = ArtifactFMMCore, cache.MechanismRW
	case fmmNoneColumn:
		opt.Mechanism = cache.MechanismNone
		opt.OnlyWholeSetColumn = true
		ev.Mechanism = cache.MechanismNone
	case fmmSRBColumn:
		opt.Mechanism = cache.MechanismSRB
		opt.OnlyWholeSetColumn = true
		ev.Mechanism = cache.MechanismSRB
	case fmmPreciseColumn:
		// The precise column classifies per set (ClassifySRBForSet);
		// the SRB guaranteed-hit vector is not consulted.
		opt.Mechanism = cache.MechanismSRB
		opt.PreciseSRB = true
		opt.OnlyWholeSetColumn = true
		ev.Mechanism, ev.Precise = cache.MechanismSRB, true
	}
	fc, err := memo(e, qctx, fieldSlot(&ce.fmms[kind][stream]), noPin, ev, func() (ipet.FMM, int64, error) {
		if kind == fmmSRBColumn {
			opt.SRBHit = e.srb(c, data)
		}
		fmm, err := ipet.ComputeFMM(ce.sys, c.val.a, c.val.base, opt)
		return fmm, fmm.MemBytes(), err
	})
	return fc.val, err
}

// hitBounds returns the context's memoized transient hit-bound vector,
// solving the per-set ILPs on first use. The caller must hold a pin on
// the context (analyze does); the vector itself is never mutated after
// construction, so returning the memoized slice directly is safe even
// across a later eviction.
func (e *Engine) hitBounds(qctx context.Context, ce *ctxEntry) (ipet.HitBounds, error) {
	a, base := ce.ic.val.a, ce.ic.val.base
	opt := ipet.HitBoundOptions{Workers: e.workers}
	if qctx.Done() != nil {
		opt.Ctx = qctx
	}
	ev := ArtifactEvent{Artifact: ArtifactTransientBound, Cache: a.Config()}
	hc, err := memo(e, qctx, fieldSlot(&ce.hb), noPin, ev, func() (ipet.HitBounds, int64, error) {
		hb, err := ipet.ComputeHitBounds(ce.sys, a, base, opt)
		return hb, hb.MemBytes(), err
	})
	return hc.val, err
}

// fmmFor splices the requested mechanism's fault miss map from the
// memoized artifacts: the shared f < W columns plus the mechanism's
// f = W column. The returned FMM is a fresh copy the caller owns.
func (e *Engine) fmmFor(qctx context.Context, ctx *ctxEntry, data bool, mech cache.Mechanism, precise bool) (ipet.FMM, error) {
	core, err := e.fmmArtifact(qctx, ctx, fmmCore, data)
	if err != nil {
		return nil, err
	}
	var column ipet.FMM
	switch {
	case precise:
		column, err = e.fmmArtifact(qctx, ctx, fmmPreciseColumn, data)
	case mech == cache.MechanismNone:
		column, err = e.fmmArtifact(qctx, ctx, fmmNoneColumn, data)
	case mech == cache.MechanismSRB:
		column, err = e.fmmArtifact(qctx, ctx, fmmSRBColumn, data)
	}
	if err != nil {
		return nil, err
	}
	c := ctx.ic
	if data {
		c = ctx.dc
	}
	ways := c.val.a.Config().Ways
	fmm := make(ipet.FMM, len(core))
	for s, row := range core {
		fmm[s] = append([]int64(nil), row...)
		if column != nil {
			fmm[s][ways] = column[s][ways]
		}
	}
	return fmm, nil
}

// Analyze runs one query against the session, reusing every memoized
// artifact and computing only the per-query probability weighting,
// convolution and quantile. The result is byte-identical to a one-shot
// Analyze call with the same configuration. It is exactly
// AnalyzeContext under context.Background().
func (e *Engine) Analyze(q Query) (*Result, error) {
	return e.AnalyzeContext(context.Background(), q)
}

// AnalyzeContext is Analyze under a context. Cancellation is honored at
// every expensive boundary: before each memoized artifact, before every
// per-set ILP solve, between simplex pivot batches inside each solve,
// and at every merge node of the penalty convolution tree. A canceled
// query returns an error satisfying errors.Is(err, ctx.Err()) promptly,
// releases its LRU pins and leaks no goroutines; memoized artifacts
// are never left poisoned by a cancellation — a partially computed
// entry is dropped and the next query recomputes it.
func (e *Engine) AnalyzeContext(ctx context.Context, q Query) (*Result, error) {
	return e.analyze(ctx, q, e.workers)
}

// analyze runs one query with the per-query distribution stages
// bounded by stageWorkers, dispatching to the degraded-mode retry loop
// when the query arms a soft deadline. AnalyzeBatchStreamContext's
// parallel path passes 1: the query-level fan-out already saturates the
// pool, and multiplying it by per-set parallelism would oversubscribe
// the machine. Stage parallelism never changes any result.
func (e *Engine) analyze(qctx context.Context, q Query, stageWorkers int) (*Result, error) {
	if q.SoftDeadline <= 0 {
		return e.analyzeOnce(qctx, q, stageWorkers)
	}
	return e.analyzeDegrade(qctx, q, stageWorkers)
}

// analyzeDegrade is the degraded-mode driver (Query.SoftDeadline): each
// attempt runs under a soft timeout with a geometrically tighter
// MaxSupport cap (quartered down to a floor of 16), and the final floor
// attempt runs without the soft timeout so the query completes unless
// the caller's own context expires. Tightening the cap only engages
// more coarsening, which is tail-preserving — every degraded result
// upper-bounds the exact pWCET (asserted by the dominance tests).
func (e *Engine) analyzeDegrade(qctx context.Context, q Query, stageWorkers int) (*Result, error) {
	const floorSupport = 16
	caps := []int{q.MaxSupport}
	if caps[0] == 0 {
		caps[0] = DefaultMaxSupport
	}
	for c := caps[len(caps)-1] >> 2; c > floorSupport; c >>= 2 {
		caps = append(caps, c)
	}
	if caps[len(caps)-1] > floorSupport {
		caps = append(caps, floorSupport)
	}
	soft := q.SoftDeadline
	q.SoftDeadline = 0
	for attempt, c := range caps {
		q.MaxSupport = c
		last := attempt == len(caps)-1
		actx := qctx
		var cancel context.CancelFunc
		if !last {
			actx, cancel = context.WithTimeout(qctx, soft)
		}
		res, err := e.analyzeOnce(actx, q, stageWorkers)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			res.Degraded = attempt > 0
			return res, nil
		}
		// Retry only when the soft deadline (not the caller's context)
		// expired; genuine analysis errors and caller cancellation
		// propagate unchanged.
		if last || !errors.Is(err, context.DeadlineExceeded) || qctx.Err() != nil {
			return nil, err
		}
	}
	panic("core: degraded-mode attempt ladder exhausted without returning")
}

// analyzeOnce runs one attempt of one query. It is the engine's panic
// boundary: a panic anywhere in the analysis is recovered into a
// *PanicError and poisons the engine — internal memo state may be
// partially constructed, so every later call fails fast with
// ErrPoisoned. Pool owners (internal/serve) check Poisoned on release
// and discard poisoned engines instead of reusing them.
func (e *Engine) analyzeOnce(qctx context.Context, q Query, stageWorkers int) (res *Result, err error) {
	if e.poisoned.Load() {
		return nil, e.poisonError()
	}
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r, Stack: debug.Stack()}
			e.poison(pe)
			res, err = nil, pe
		}
	}()
	if faultpoint.Enabled {
		if ferr := faultpoint.Hit(faultpoint.SiteAnalyze); ferr != nil {
			return nil, fmt.Errorf("core: %w", ferr)
		}
	}
	if err := qctx.Err(); err != nil {
		return nil, err
	}
	opt := q.options(e.workers)
	opt.Reference = e.ref       // echoed in Result.Options like the one-shot path
	opt.ExactConvolve = e.exact // ditto; buildDistributions reads it off Result.Options
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.DataCache != nil && opt.PreciseSRB {
		return nil, fmt.Errorf("core: PreciseSRB is not supported together with a data cache")
	}
	scn, err := opt.scenario()
	if err != nil {
		return nil, err
	}
	kind := scn.Kind()
	pfail, _ := fault.Components(scn)
	if kind != fault.KindPermanent && (opt.PreciseSRB || opt.DataCache != nil) {
		return nil, fmt.Errorf("core: %v scenario does not support PreciseSRB or DataCache (permanent only)", kind)
	}
	model, err := fault.NewModel(pfail, opt.Cache)
	if err != nil {
		return nil, err
	}
	var dmodel fault.Model
	if opt.DataCache != nil {
		if err := opt.DataCache.Validate(); err != nil {
			return nil, fmt.Errorf("core: data cache: %w", err)
		}
		dmodel, err = fault.NewModel(pfail, *opt.DataCache)
		if err != nil {
			return nil, err
		}
	}

	cc, err := e.context(qctx, opt.Cache, opt.DataCache)
	if err != nil {
		return nil, err
	}
	// The context (and through it the classifications) stays pinned —
	// not evictable — for the rest of the query; the budget is enforced
	// against the unpinned remainder now and fully on release. The defer
	// also runs when the analysis panics (the recover above fires after
	// it), so even a poisoning query leaves no pinned bytes behind.
	defer e.releaseCtx(cc)
	ce := cc.val
	var fmm ipet.FMM
	if kind != fault.KindTransient {
		fmm, err = e.fmmFor(qctx, ce, false, opt.Mechanism, false)
		if err != nil {
			return nil, err
		}
	}

	res = &Result{
		Program:       e.p.Name,
		Options:       opt,
		Scenario:      scn,
		Model:         model,
		FaultFreeWCET: ce.wcet.WCET,
		FMM:           fmm,
		HitRefs:       ce.wcet.HitRefs,
		FMRefs:        ce.wcet.FMRefs,
		MissRefs:      ce.wcet.MissRefs,
	}
	var probe func() error
	if qctx.Done() != nil {
		probe = qctx.Err // checked at every convolution merge node
	}
	if kind != fault.KindPermanent {
		res.HitBounds, err = e.hitBounds(qctx, ce)
		if err != nil {
			return nil, err
		}
	}
	if opt.DataCache != nil {
		dfmm, err := e.fmmFor(qctx, ce, true, opt.Mechanism, false)
		if err != nil {
			return nil, err
		}
		res.DataModel = dmodel
		res.DataFMM = dfmm
	}
	if err := res.buildDistributionsCancel(stageWorkers, probe); err != nil {
		return nil, err
	}
	if opt.PreciseSRB && opt.Mechanism == cache.MechanismSRB {
		pfmm, err := e.fmmFor(qctx, ce, false, opt.Mechanism, true)
		if err != nil {
			return nil, err
		}
		if err := res.attachPreciseSRB(pfmm, stageWorkers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// BatchResult is one indexed outcome of AnalyzeBatchStreamContext: the
// query's position in the input slice, the query itself, and either a
// result or an error. Delivery order follows completion, but the
// content of every result is deterministic — a pure function of the
// query.
type BatchResult struct {
	Index  int
	Query  Query
	Result *Result
	Err    error
}

// AnalyzeBatchStreamContext schedules the queries over the engine's
// worker pool and streams each outcome to deliver as soon as it
// completes. deliver is never called concurrently with itself; delivery
// order is scheduling-dependent, result content is not. Shared
// artifacts are computed once however many queries need them:
// concurrent queries that hit the same missing artifact block until its
// single computation finishes. When the context dies, every
// not-yet-started query fails fast with ctx.Err() and in-flight queries
// abandon their solves at the next cancellation checkpoint — deliver is
// still called exactly once per query, and all worker goroutines exit
// before the call returns.
func (e *Engine) AnalyzeBatchStreamContext(ctx context.Context, queries []Query, deliver func(BatchResult)) {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i, q := range queries {
			res, err := e.analyze(ctx, q, e.workers)
			deliver(BatchResult{Index: i, Query: q, Result: res, Err: err})
		}
		return
	}

	var mu sync.Mutex // serializes deliver
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Stage parallelism 1: the query-level fan-out already
				// saturates the pool (memoized artifacts still compute
				// at the engine's Workers, deduplicated by their memo cells).
				res, err := e.analyze(ctx, queries[i], 1)
				mu.Lock()
				deliver(BatchResult{Index: i, Query: queries[i], Result: res, Err: err})
				mu.Unlock()
			}
		}()
	}
	for i := range queries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// AnalyzeBatch runs all queries and returns their results in input
// order. On failures it returns the error of the lowest-index failing
// query — the same one a sequential loop would have hit first.
func (e *Engine) AnalyzeBatch(queries []Query) ([]*Result, error) {
	return e.AnalyzeBatchContext(context.Background(), queries)
}

// AnalyzeBatchContext is AnalyzeBatch under a context: a canceled batch
// returns ctx.Err() (wrapped per the lowest failing query) after all
// workers have wound down, with every pin released.
func (e *Engine) AnalyzeBatchContext(ctx context.Context, queries []Query) ([]*Result, error) {
	results := make([]*Result, len(queries))
	firstFailed, firstErr := len(queries), error(nil)
	e.AnalyzeBatchStreamContext(ctx, queries, func(r BatchResult) {
		if r.Err != nil {
			if r.Index < firstFailed {
				firstFailed, firstErr = r.Index, r.Err
			}
			return
		}
		results[r.Index] = r.Result
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
