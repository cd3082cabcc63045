package absint

// This file is the compact abstract set state the hot path runs on: the
// same Must/May/Persistence lattice as domain.go, represented over the
// set's local block universe (see index.go) as dense age arrays and
// younger-set bitsets instead of hash maps. Every operation — join,
// transfer, equality — is an elementwise sweep over the (small) block
// universe, so a fixpoint iteration costs a few linear scans instead of
// map iteration, hashing and per-entry allocation.
//
// It runs at full associativity only; smaller ones are read off the
// recorded refLevels. The map-based domain in domain.go is retained as
// the reference implementation; TestCompactDomainMatchesReference* and
// FuzzCompactMatchesReference check, on random programs and the
// Mälardalen benchmarks, that both produce identical classifications
// for every (set, associativity).

import (
	"math"
	"math/bits"

	"repro/internal/chmc"
)

// cstate is the joint Must/May/Persistence state of one cache set over
// a local block universe of B blocks.
//
// must[b]/may[b] hold the block's age bound, or -1 when the block is
// not in the respective ACS. The persistence state of block b is:
// absent (persIn[b] == false: never loaded on any path), saturated
// (persSat[b]: may have been evicted), or the younger set itself —
// persSize[b] distinct blocks recorded in row b of the persBits bitset.
// Bits of absent or saturated rows are meaningless (rows are cleared on
// (re)insertion), mirroring the nil blocks map of a saturated
// youngerSet.
type cstate struct {
	reached  bool
	must     []int16
	may      []int16
	persIn   []bool
	persSat  []bool
	persSize []int16
	persBits []uint64
	words    int
}

func newCstate(nblocks, words int) *cstate {
	s := &cstate{
		must:     make([]int16, nblocks),
		may:      make([]int16, nblocks),
		persIn:   make([]bool, nblocks),
		persSat:  make([]bool, nblocks),
		persSize: make([]int16, nblocks),
		persBits: make([]uint64, nblocks*words),
		words:    words,
	}
	s.reset()
	return s
}

// reset restores the unreached empty state (the lattice bottom).
func (s *cstate) reset() {
	s.reached = false
	for b := range s.must {
		s.must[b] = -1
		s.may[b] = -1
		s.persIn[b] = false
	}
}

// copyFrom makes s an exact copy of o (same universe).
func (s *cstate) copyFrom(o *cstate) {
	s.reached = o.reached
	copy(s.must, o.must)
	copy(s.may, o.may)
	copy(s.persIn, o.persIn)
	copy(s.persSat, o.persSat)
	copy(s.persSize, o.persSize)
	copy(s.persBits, o.persBits)
}

// join merges another state into s — Must: intersection with maximal
// age; May: union with minimal age; Persistence: union with united
// younger sets — exactly like setState.join.
func (s *cstate) join(o *cstate, assoc int) {
	if !o.reached {
		return
	}
	if !s.reached {
		s.copyFrom(o)
		return
	}
	w := s.words
	for b := range s.must {
		if a := s.must[b]; a >= 0 {
			if oa := o.must[b]; oa < 0 {
				s.must[b] = -1
			} else if oa > a {
				s.must[b] = oa
			}
		}
		if oa := o.may[b]; oa >= 0 && (s.may[b] < 0 || oa < s.may[b]) {
			s.may[b] = oa
		}
		if !o.persIn[b] {
			continue
		}
		switch {
		case !s.persIn[b]:
			s.persIn[b] = true
			s.persSat[b] = o.persSat[b]
			s.persSize[b] = o.persSize[b]
			copy(s.persBits[b*w:(b+1)*w], o.persBits[b*w:(b+1)*w])
		case s.persSat[b]:
			// Saturated absorbs any union.
		case o.persSat[b]:
			s.persSat[b] = true
		default:
			row, orow := s.persBits[b*w:(b+1)*w], o.persBits[b*w:(b+1)*w]
			size := 0
			for i := range row {
				row[i] |= orow[i]
				size += bits.OnesCount64(row[i])
			}
			s.persSize[b] = int16(size)
			if size >= assoc {
				s.persSat[b] = true
			}
		}
	}
}

// access applies the LRU transfer function for an access to local block
// m, mirroring setState.access.
func (s *cstate) access(m int32, assoc int) {
	if assoc <= 0 {
		return // no usable ways: nothing is cached
	}
	// Must update: blocks younger than m's max age grow older.
	mAge := s.must[m]
	if mAge < 0 {
		mAge = int16(assoc)
	}
	for b := range s.must {
		if a := s.must[b]; int32(b) != m && a >= 0 && a < mAge {
			if int(a)+1 >= assoc {
				s.must[b] = -1
			} else {
				s.must[b] = a + 1
			}
		}
	}
	s.must[m] = 0

	// May update: blocks at least as young as m's min age grow older.
	mMin := s.may[m]
	if mMin < 0 {
		mMin = int16(assoc)
	}
	for b := range s.may {
		if a := s.may[b]; int32(b) != m && a >= 0 && a <= mMin {
			if int(a)+1 >= assoc {
				s.may[b] = -1
			} else {
				s.may[b] = a + 1
			}
		}
	}
	s.may[m] = 0

	// Persistence update: every other block may now have one more
	// distinct block above it; m's own younger set resets.
	w := s.words
	word, mask := int(m)/64, uint64(1)<<(uint(m)%64)
	for b := range s.persIn {
		if int32(b) == m || !s.persIn[b] || s.persSat[b] {
			continue
		}
		if s.persBits[b*w+word]&mask == 0 {
			s.persBits[b*w+word] |= mask
			s.persSize[b]++
			if int(s.persSize[b]) >= assoc {
				s.persSat[b] = true
			}
		}
	}
	row := s.persBits[int(m)*w : (int(m)+1)*w]
	for i := range row {
		row[i] = 0
	}
	s.persIn[m] = true
	s.persSat[m] = false
	s.persSize[m] = 0
}

// equal reports exact state equality, like setState.equal. The states
// kept in a fixpoint are empty while unreached (they are only mutated
// once reached), so unreached states compare by reachedness alone.
func (s *cstate) equal(o *cstate) bool {
	if s.reached != o.reached {
		return false
	}
	if !s.reached {
		return true
	}
	w := s.words
	for b := range s.must {
		if s.must[b] != o.must[b] || s.may[b] != o.may[b] || s.persIn[b] != o.persIn[b] {
			return false
		}
		if !s.persIn[b] {
			continue
		}
		if s.persSat[b] != o.persSat[b] {
			return false
		}
		if s.persSat[b] {
			continue // saturated: content is immaterial, like a nil blocks map
		}
		if s.persSize[b] != o.persSize[b] {
			return false
		}
		row, orow := s.persBits[b*w:(b+1)*w], o.persBits[b*w:(b+1)*w]
		for i := range row {
			if row[i] != orow[i] {
				return false
			}
		}
	}
	return true
}

// never is a level threshold no associativity reaches.
const never = math.MaxInt16

// refLevel is the W-way pre-state of one reference to block m, reduced
// to what its class at associativity 1 <= A <= W reads (see
// Analyzer.fillLevels): m is in the A-way Must (May) state iff its W-way
// age must (may) is in [0, A), and m's A-way younger set is absent or
// unsaturated iff pers < A (-1: absent; never: saturated or unreached).
type refLevel struct {
	global          int32
	must, pers, may int16
}

// level records the pre-state of an access to local block m. An
// unreached state is empty (all ages -1), so it classifies AlwaysMiss.
func (s *cstate) level(global, m int32) refLevel {
	l := refLevel{global: global, must: s.must[m], pers: never, may: s.may[m]}
	switch {
	case !s.reached:
	case !s.persIn[m]:
		l.pers = -1
	case !s.persSat[m]:
		l.pers = s.persSize[m]
	}
	return l
}

// class derives the CHMC at associativity 1 <= assoc <= W, testing in
// the order of classify().
func (l refLevel) class(assoc int) chmc.Class {
	switch {
	case l.must >= 0 && int(l.must) < assoc:
		return chmc.AlwaysHit
	case int(l.pers) < assoc:
		return chmc.FirstMiss
	case l.may < 0 || int(l.may) >= assoc:
		return chmc.AlwaysMiss
	default:
		return chmc.NotClassified
	}
}
