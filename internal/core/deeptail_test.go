package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/malardalen"
)

// deepTailGolden holds the SHA-256 of every (value, probability bits)
// atom of Result.Penalty for the deep-tail configurations of
// TestDeepTailPenaltyBits. The 256-set geometry drives the convolved
// tail far below 1e-300, into the subnormal range, so these hashes pin
// the exact rounding of every pair product there.
var deepTailGolden = map[string]string{
	"crc/permanent/none":   "df3f022e1272d8cea55e212e5e7ea84d5299c6d7e5ba0344af7fa4110d6f94d5",
	"crc/permanent/srb":    "f6bfc5f688888d16e918d8e92905897775f376b6ad6e110e3d834c4e893f376c",
	"crc/transient/none":   "7228893a20c5c14a207a14843b3caa5af570bb27777364c82d03fb9384c02c9a",
	"crc/transient/srb":    "7228893a20c5c14a207a14843b3caa5af570bb27777364c82d03fb9384c02c9a",
	"crc/combined/none":    "98d205eaff67cebefde353785b772fac6c114cfcf5ac561fd7053290bf0cc1ac",
	"crc/combined/srb":     "751c7e749a393ce2268b1b51a99415cd09686d6afa4e4295763042f3457316b5",
	"fft/permanent/none":   "ee4135921b703b245c2e644198f88c5faad634206ceaf322c31bca265004d426",
	"fft/permanent/srb":    "273f18230df7d2f214b50b27322a9bf7505a51a82758a7fa82ea9005f45ef6a3",
	"fft/transient/none":   "09b28741159f2872389bb220e2e1b6e0779bcf15513c4f84bdad196b4f3dfb51",
	"fft/transient/srb":    "09b28741159f2872389bb220e2e1b6e0779bcf15513c4f84bdad196b4f3dfb51",
	"fft/combined/none":    "fd58737971545802f93c869118b635e8474211aedad1eed8ad4fda5d0bf45750",
	"fft/combined/srb":     "052b96b041fe18434ef2689a131f1ccac7e6daec1b260ca77cceb7814c93fedc",
	"adpcm/permanent/none": "71dc7ed9b8368b553c220aff986424b0e80ad3463d3f1c063f678f36dbb0e5d3",
	"adpcm/permanent/srb":  "a90e2a5ae9f49dfd57cb1cb67b1dad629a343182ccde35717a073fdbff71fad2",
	"adpcm/transient/none": "b945d3f488dab0d517b892888773185758edb025f314566ffd14a636f6f3e7e2",
	"adpcm/transient/srb":  "b945d3f488dab0d517b892888773185758edb025f314566ffd14a636f6f3e7e2",
	"adpcm/combined/none":  "c537368eef734d7b8e9142ef5691a164c582624e0f4be4165e7dbe11ec7f696e",
	"adpcm/combined/srb":   "61c631da5eaa2cf47b800e7cae608776b53360ae7ed46806ea5f41ed9b19e7c1",
}

// TestDeepTailPenaltyBits pins the penalty distributions of three
// Mälardalen programs on a 256-set cache under permanent, transient and
// combined faults, bit for bit, at one and two workers. A change to
// how the convolution multiplies or accumulates tail probabilities —
// a single ulp of a subnormal atom — changes a hash.
func TestDeepTailPenaltyBits(t *testing.T) {
	cfg := cache.Config{Sets: 256, Ways: 4, BlockBytes: 16, HitLatency: 1, MemLatency: 100}
	scenarios := []struct {
		name string
		sc   fault.Scenario
	}{
		{"permanent", fault.Permanent{Pfail: 1e-4}},
		{"transient", fault.Transient{Lambda: 1e-9}},
		{"combined", fault.Combined{Pfail: 1e-4, Lambda: 1e-9}},
	}
	mechs := []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB}
	subnormal := 0
	for _, bench := range []string{"crc", "fft", "adpcm"} {
		p := malardalen.MustGet(bench)
		for _, workers := range []int{1, 2} {
			e, err := NewEngine(p, EngineOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range scenarios {
				for _, mech := range mechs {
					key := fmt.Sprintf("%s/%s/%s", bench, sc.name, mech)
					r, err := e.Analyze(Query{Cache: cfg, Scenario: sc.sc, Mechanism: mech})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got := penaltyHash(r)
					for _, pt := range r.Penalty.Points() {
						if pt.Prob < 0x1p-1022 {
							subnormal++
						}
					}
					if want, ok := deepTailGolden[key]; !ok {
						t.Errorf("%s: no golden hash; got %s", key, got)
					} else if got != want {
						t.Errorf("%s workers=%d: penalty hash %s, want %s", key, workers, got, want)
					}
				}
			}
		}
	}
	// Construction check: the hashes only pin subnormal rounding if the
	// corpus reaches it.
	if subnormal == 0 {
		t.Fatal("test construction: no penalty atom is subnormal")
	}
}

// penaltyHash is the SHA-256 over every (value, math.Float64bits(prob))
// atom of the result's penalty distribution, little-endian.
func penaltyHash(r *Result) string {
	h := sha256.New()
	var buf [16]byte
	for _, pt := range r.Penalty.Points() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(pt.Value))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(pt.Prob))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
