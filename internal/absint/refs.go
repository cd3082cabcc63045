// Package absint implements the static instruction-cache analyses of the
// paper by abstract interpretation over the program CFG (Section II.B.1):
//
//   - Must analysis (always-hit classification), per Ferdinand/Theiling;
//   - May analysis (always-miss classification);
//   - Persistence analysis (first-miss classification), using the sound
//     "younger set" abstraction: the age of a block is upper-bounded by
//     the number of distinct same-set blocks possibly accessed since its
//     last access, which avoids the known unsoundness of the original
//     aging-based persistence update;
//   - the SRB analysis of Section III.B.2: a Must analysis of the
//     single-block Shared Reliable Buffer performed as if the SRB were
//     the only cache in the system.
//
// Because LRU sets are mutually independent, each cache set is analyzed
// separately; degraded sets (with f faulty ways) are classified at
// effective associativity W-f, which is what the Fault Miss Map needs,
// from the set's one full-associativity fixpoint (Analyzer.fillLevels).
package absint

import (
	"repro/internal/cache"
	"repro/internal/program"
)

// Ref is one cache reference: the first instruction fetch of basic block
// BB inside memory block Block. Subsequent fetches of the same memory
// block within the basic block are guaranteed hits while the set has at
// least one usable way, and are accounted by NumInstr when it has none.
type Ref struct {
	// Global is the reference's index in Analyzer.Refs().
	Global int
	// BB is the basic block ID.
	BB int
	// Index is the reference's position among BB's references.
	Index int
	// Block is the memory-block address (byte address / BlockBytes).
	Block uint32
	// FirstAddr is the byte address of the first instruction covered by
	// this reference (not necessarily block-aligned for a block's first
	// reference).
	FirstAddr uint32
	// Set is the cache set the block maps to.
	Set int
	// NumInstr is the number of BB's instructions covered by this memory
	// block (1..BlockBytes/InstrBytes).
	NumInstr int
}

// ComputeDataRefs lists the data-cache references of every basic block
// in issue order: one reference per maximal run of consecutive
// same-block data accesses (the trailing accesses of a run are
// guaranteed hits, exactly like intra-block instruction fetches).
// NumInstr counts the accesses of the run.
func ComputeDataRefs(p *program.Program, cfg cache.Config) ([][]Ref, []Ref) {
	perBB := make([][]Ref, len(p.Blocks))
	var all []Ref
	for _, b := range p.Blocks {
		if len(b.Data) == 0 {
			continue
		}
		var refs []Ref
		cur := uint32(0xffffffff)
		first := true
		for _, d := range b.Data {
			m := cfg.BlockAddr(d.Addr)
			if first || m != cur {
				refs = append(refs, Ref{
					Global:    len(all) + len(refs),
					BB:        b.ID,
					Index:     len(refs),
					Block:     m,
					FirstAddr: d.Addr,
					Set:       cfg.SetOfBlock(m),
				})
				cur = m
				first = false
			}
			refs[len(refs)-1].NumInstr++
		}
		perBB[b.ID] = refs
		all = append(all, refs...)
	}
	return perBB, all
}

// ComputeRefs lists the references of every basic block in fetch order.
// The result is indexed by block ID; Global indices follow (BB, Index)
// order.
func ComputeRefs(p *program.Program, cfg cache.Config) ([][]Ref, []Ref) {
	perBB := make([][]Ref, len(p.Blocks))
	var all []Ref
	for _, b := range p.Blocks {
		if b.NumInstr == 0 {
			continue
		}
		var refs []Ref
		cur := uint32(0xffffffff)
		for i := 0; i < b.NumInstr; i++ {
			a := b.Addr + uint32(i*program.InstrBytes)
			m := cfg.BlockAddr(a)
			if len(refs) == 0 || m != cur {
				refs = append(refs, Ref{
					Global:    len(all) + len(refs),
					BB:        b.ID,
					Index:     len(refs),
					Block:     m,
					FirstAddr: a,
					Set:       cfg.SetOfBlock(m),
				})
				cur = m
			}
			refs[len(refs)-1].NumInstr++
		}
		perBB[b.ID] = refs
		all = append(all, refs...)
	}
	return perBB, all
}
