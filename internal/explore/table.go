package explore

// stateTable is an open-addressing hash table mapping packed states to their
// dense int32 IDs. It stores no key bytes of its own: a state's words live in
// the caller's retained slab at offset id*words, so an entry is just the
// 64-bit hash (to skip almost all word comparisons) and the ID.
//
// Concurrency contract (matching the driver's phase structure): lookups may
// run concurrently from many workers during an expansion phase; inserts
// happen only from the single-threaded merge phase, with no concurrent
// lookups. The phases are separated by a WaitGroup barrier, which provides
// the necessary happens-before edges, so the table needs no locks at all.
type stateTable struct {
	// entries[i].id is the state ID plus one; zero marks an empty slot.
	entries []tableEntry
	count   int
	mask    uint64
}

type tableEntry struct {
	hash uint64
	id   int32
}

const initialTableSize = 1024 // power of two

func newStateTable() *stateTable {
	return &stateTable{entries: make([]tableEntry, initialTableSize), mask: initialTableSize - 1}
}

// hashWords hashes a packed state (FNV-1a over whole words).
func hashWords(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h ^= w
		h *= 1099511628211
	}
	return h
}

func wordsEqual(a, b []uint64) bool {
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// lookup returns the ID of the state equal to key, or (-1, false). slab holds
// every registered state back to back, w words each.
func (t *stateTable) lookup(slab []uint64, w int, hash uint64, key []uint64) (int32, bool) {
	i := hash & t.mask
	for {
		e := t.entries[i]
		if e.id == 0 {
			return -1, false
		}
		if e.hash == hash {
			id := e.id - 1
			base := int(id) * w
			if wordsEqual(slab[base:base+w], key) {
				return id, true
			}
		}
		i = (i + 1) & t.mask
	}
}

// insert registers a state already appended to the slab. The caller
// guarantees the state is not present.
func (t *stateTable) insert(hash uint64, id int32) {
	if (t.count+1)*4 >= len(t.entries)*3 {
		t.grow()
	}
	i := hash & t.mask
	for t.entries[i].id != 0 {
		i = (i + 1) & t.mask
	}
	t.entries[i] = tableEntry{hash: hash, id: id + 1}
	t.count++
}

func (t *stateTable) grow() {
	old := t.entries
	t.entries = make([]tableEntry, len(old)*2)
	t.mask = uint64(len(t.entries) - 1)
	for _, e := range old {
		if e.id == 0 {
			continue
		}
		i := e.hash & t.mask
		for t.entries[i].id != 0 {
			i = (i + 1) & t.mask
		}
		t.entries[i] = e
	}
}
