package absint

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/malardalen"
	"repro/internal/progen"
	"repro/internal/program"
)

// diffConfigs are the cache geometries the compact domain is pitted
// against the reference on: the paper's 16-set cache, a 256-set
// geometry where per-set universes get sparse (many empty sets), and
// the high-associativity 8x8 and 4x16 caches, where one full-
// associativity fixpoint serves the most smaller associativities.
func diffConfigs() []cache.Config {
	return []cache.Config{
		cache.PaperConfig(),
		{Sets: 256, Ways: 4, BlockBytes: 16, HitLatency: 1, MemLatency: 100},
		{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		{Sets: 8, Ways: 8, BlockBytes: 16, HitLatency: 1, MemLatency: 100},
		{Sets: 4, Ways: 16, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
	}
}

// assertSameClassification compares the compact and reference
// classifications of one program/config across full classification,
// every per-set degraded associativity, and the reused-buffer path.
func assertSameClassification(t *testing.T, name string, p *program.Program, cfg cache.Config) {
	t.Helper()
	fast := New(p, cfg)
	ref := NewReference(p, cfg)

	fa, ra := fast.ClassifyAll(), ref.ClassifyAll()
	for i := range fa {
		if fa[i] != ra[i] {
			t.Fatalf("%s/%v: ClassifyAll ref %d: %v vs reference %v", name, cfg, i, fa[i], ra[i])
		}
	}
	for set := 0; set < cfg.Sets; set++ {
		refs := fast.RefsOfSet(set)
		// The per-set index must be exactly the filtered global list.
		want := 0
		for _, r := range fast.Refs() {
			if r.Set == set {
				if refs[want] != r {
					t.Fatalf("%s/%v: RefsOfSet(%d)[%d] = %+v, want %+v", name, cfg, set, want, refs[want], r)
				}
				want++
			}
		}
		if want != len(refs) {
			t.Fatalf("%s/%v: RefsOfSet(%d) has %d refs, want %d", name, cfg, set, len(refs), want)
		}
		for assoc := 0; assoc <= cfg.Ways; assoc++ {
			fc, rc := fast.ClassifySet(set, assoc), ref.ClassifySet(set, assoc)
			for _, r := range refs {
				if fc[r.Global] != rc[r.Global] {
					t.Fatalf("%s/%v: set %d assoc %d ref %d: %v vs reference %v",
						name, cfg, set, assoc, r.Global, fc[r.Global], rc[r.Global])
				}
			}
		}
	}
}

// TestCompactDomainMatchesReferenceMalardalen: compact vs reference
// classifications must be identical on real benchmarks across the 16-
// and 256-set geometries, for every set and effective associativity.
func TestCompactDomainMatchesReferenceMalardalen(t *testing.T) {
	for _, name := range []string{"adpcm", "crc", "matmult", "bs"} {
		p := malardalen.MustGet(name)
		for _, cfg := range diffConfigs() {
			sub := fmt.Sprintf("%s/sets=%d", name, cfg.Sets)
			if cfg.Ways > 4 {
				sub += fmt.Sprintf(",ways=%d", cfg.Ways)
			}
			t.Run(sub, func(t *testing.T) {
				assertSameClassification(t, name, p, cfg)
			})
		}
	}
}

// TestCompactDomainMatchesReferenceRandom fuzzes the comparison over
// random structured programs (loops, branches, calls).
func TestCompactDomainMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		p := progen.Random(rng, progen.DefaultParams())
		cfg := cache.Config{
			Sets:       []int{2, 4, 8, 16}[rng.Intn(4)],
			Ways:       1 + rng.Intn(4),
			BlockBytes: []int{8, 16}[rng.Intn(2)],
			HitLatency: 1,
			MemLatency: 10,
		}
		assertSameClassification(t, fmt.Sprintf("random-%d", iter), p, cfg)
	}
}

// TestClassifySetIntoReusesBuffer: one buffer reused across every
// (set, associativity) pair — the FMM's access pattern — must yield
// the same per-set entries as fresh ClassifySet calls; stale entries
// may only ever survive for other sets.
func TestClassifySetIntoReusesBuffer(t *testing.T) {
	p := malardalen.MustGet("crc")
	cfg := cache.PaperConfig()
	a := New(p, cfg)
	buf := make([]chmc.Class, len(a.Refs()))
	for set := 0; set < cfg.Sets; set++ {
		for assoc := cfg.Ways; assoc >= 0; assoc-- {
			a.ClassifySetInto(buf, set, assoc)
			fresh := a.ClassifySet(set, assoc)
			for _, r := range a.RefsOfSet(set) {
				if buf[r.Global] != fresh[r.Global] {
					t.Fatalf("set %d assoc %d ref %d: reused buffer %v, fresh %v",
						set, assoc, r.Global, buf[r.Global], fresh[r.Global])
				}
			}
		}
	}
}

// TestCompactDomainMatchesReferenceAnyOrder: a set's levels are filled
// by whichever classification of the set comes first, so classifying
// at descending and then at shuffled associativities, with the sets
// themselves visited in shuffled order, before ClassifyAll must still
// match the reference everywhere.
func TestCompactDomainMatchesReferenceAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"adpcm", "crc", "matmult"} {
		p := malardalen.MustGet(name)
		for _, cfg := range diffConfigs() {
			ref := NewReference(p, cfg)
			want := make([][]chmc.Class, cfg.Sets*(cfg.Ways+1))
			for k := range want {
				want[k] = ref.ClassifySet(k/(cfg.Ways+1), k%(cfg.Ways+1))
			}
			for _, order := range []string{"descending", "shuffled"} {
				fast := New(p, cfg)
				for _, set := range rng.Perm(cfg.Sets) {
					assocs := rng.Perm(cfg.Ways + 1)
					if order == "descending" {
						for i := range assocs {
							assocs[i] = cfg.Ways - i
						}
					}
					for _, assoc := range assocs {
						fc, rc := fast.ClassifySet(set, assoc), want[set*(cfg.Ways+1)+assoc]
						for _, r := range fast.RefsOfSet(set) {
							if fc[r.Global] != rc[r.Global] {
								t.Fatalf("%s/%v/%s: set %d assoc %d ref %d: %v vs reference %v",
									name, cfg, order, set, assoc, r.Global, fc[r.Global], rc[r.Global])
							}
						}
					}
				}
				fa, ra := fast.ClassifyAll(), ref.ClassifyAll()
				for i := range fa {
					if fa[i] != ra[i] {
						t.Fatalf("%s/%v/%s: ClassifyAll ref %d: %v vs reference %v", name, cfg, order, i, fa[i], ra[i])
					}
				}
			}
		}
	}
}

// FuzzCompactMatchesReference decodes a random program seed and a cache
// geometry (1 to 64 sets, 1 to 16 ways) and compares the compact and
// reference classifications for every (set, associativity).
func FuzzCompactMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7), false)
	f.Add(int64(99), uint8(0), uint8(15), true)
	f.Add(int64(7), uint8(6), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, setsLog, ways uint8, wide bool) {
		p := progen.Random(rand.New(rand.NewSource(seed)), progen.DefaultParams())
		cfg := cache.Config{
			Sets:       1 << (setsLog % 7),
			Ways:       1 + int(ways%16),
			BlockBytes: 8,
			HitLatency: 1,
			MemLatency: 10,
		}
		if wide {
			cfg.BlockBytes = 16
		}
		assertSameClassification(t, fmt.Sprintf("seed-%d", seed), p, cfg)
	})
}

// TestLevelsConcurrentFill: 8 goroutines classifying every (set,
// associativity) of one fresh Analyzer — the FMM workers' pattern, with
// each set's lazy level fill raced by several of them — must agree with
// a serial run (and be clean under -race).
func TestLevelsConcurrentFill(t *testing.T) {
	for _, name := range []string{"adpcm", "matmult"} {
		p := malardalen.MustGet(name)
		for _, cfg := range diffConfigs() {
			serial := New(p, cfg)
			want := make([][]chmc.Class, cfg.Sets*(cfg.Ways+1))
			for set := 0; set < cfg.Sets; set++ {
				for assoc := 0; assoc <= cfg.Ways; assoc++ {
					want[set*(cfg.Ways+1)+assoc] = serial.ClassifySet(set, assoc)
				}
			}
			a := New(p, cfg)
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]chmc.Class, len(a.Refs()))
					for k := range want {
						// Stagger the workers so different ones reach a
						// set first.
						k = (k + w*len(want)/8) % len(want)
						set, assoc := k/(cfg.Ways+1), k%(cfg.Ways+1)
						a.ClassifySetInto(buf, set, assoc)
						for _, r := range a.RefsOfSet(set) {
							if buf[r.Global] != want[k][r.Global] {
								errs <- fmt.Sprintf("%s/%v: worker %d set %d assoc %d ref %d: %v, serial %v",
									name, cfg, w, set, assoc, r.Global, buf[r.Global], want[k][r.Global])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		}
	}
}

// TestMemBytesCountsLevels: the level records filled by classification
// are part of the analyzer's memory estimate, counted once.
func TestMemBytesCountsLevels(t *testing.T) {
	a := New(malardalen.MustGet("adpcm"), cache.PaperConfig())
	before := a.MemBytes()
	a.ClassifyAll()
	after := a.MemBytes()
	if after <= before {
		t.Fatalf("MemBytes %d after ClassifyAll, %d before: the levels are not counted", after, before)
	}
	a.ClassifySet(0, 1)
	a.ClassifyAll()
	if again := a.MemBytes(); again != after {
		t.Fatalf("MemBytes %d after reclassifying, %d after the first ClassifyAll", again, after)
	}
}
