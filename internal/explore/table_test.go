package explore

import "testing"

// buildTable registers every state of the slab (w words each, all distinct)
// in a fresh table, exactly as Run's merge phase does.
func buildTable(slab []uint64, w int) *stateTable {
	t := newStateTable()
	for id := 0; id*w < len(slab); id++ {
		t.insert(hashWords(slab[id*w:(id+1)*w]), int32(id))
	}
	return t
}

// meanDisplacement is the mean distance of the occupied slots from their
// home slot hash&mask. A lookup of a present state walks displacement+1
// slots, so this is the table's probe cost read off its layout, with no
// counter on the hot path.
func meanDisplacement(t *stateTable) float64 {
	total, n := uint64(0), 0
	for i, e := range t.entries {
		if e.id == 0 {
			continue
		}
		total += (uint64(i) - e.hash&t.mask) & t.mask
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// MeanDisplacement builds a table over the states of the slab and returns
// its mean slot displacement; exported for the external test package.
func MeanDisplacement(slab []uint64, w int) float64 {
	return meanDisplacement(buildTable(slab, w))
}

// TestStateTableHighBitStates guards against hash clustering: slots are
// picked with hash&mask, so states that differ only in their high bits must
// still spread over the table. Without a finaliser after the FNV-1a word
// multiply, every state below lands in a single probe run.
func TestStateTableHighBitStates(t *testing.T) {
	const n = 15625
	cases := []struct {
		name string
		w    int
		fill func(i int, words []uint64)
	}{
		{"counter in high half", 1, func(i int, words []uint64) { words[0] = uint64(i) << 32 }},
		{"counter in top bits of second word", 2, func(i int, words []uint64) {
			words[0] = 0x5555
			words[1] = uint64(i) << 48
		}},
		{"one-hot digits above bit 40", 3, func(i int, words []uint64) {
			// Six base-5 digits, each a one-hot group of five bits,
			// like the per-service progress bits of a packed state.
			for d := 0; d < 6; d++ {
				digit := (i / pow5(d)) % 5
				words[d/2] |= 1 << (40 + 5*(d%2) + digit)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slab := make([]uint64, n*tc.w)
			for i := 0; i < n; i++ {
				tc.fill(i, slab[i*tc.w:(i+1)*tc.w])
			}
			tbl := buildTable(slab, tc.w)
			if tbl.count != n {
				t.Fatalf("table holds %d states, want %d", tbl.count, n)
			}
			for id := int32(0); id < n; id++ {
				key := slab[int(id)*tc.w : int(id+1)*tc.w]
				if got, ok := tbl.lookup(slab, tc.w, hashWords(key), key); !ok || got != id {
					t.Fatalf("lookup of state %d = (%d, %v)", id, got, ok)
				}
			}
			if d := meanDisplacement(tbl); d > 2 {
				t.Fatalf("mean slot displacement %.1f, want at most 2: the hash clusters in its low bits", d)
			}
		})
	}
}

func pow5(d int) int {
	p := 1
	for ; d > 0; d-- {
		p *= 5
	}
	return p
}
