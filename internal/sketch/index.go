package sketch

// EpochSet is an epoch-stamped membership set over dense integer ids:
// one int32 stamp per id instead of a fresh map per query. A query
// epoch begins with Begin; Seen stamps an id and reports whether it
// was already stamped this epoch. The zero value is ready to use.
//
// This is the candidate-dedup scratch the batch clusterer always
// carried inline; it is extracted here so the streaming index shares
// it instead of duplicating it (and so its allocation behavior stays
// pinned in one place).
type EpochSet struct {
	stamp []int32
	epoch int32
}

// Begin starts a new query epoch. On int32 wrap the stamps are
// cleared, which keeps arbitrarily long-lived sets correct.
func (s *EpochSet) Begin() {
	s.epoch++
	if s.epoch == 0 { // wrapped: every stale stamp would look current
		clear(s.stamp)
		s.epoch = 1
	}
}

// Extend grows the id space to n ids, stamping the new ids unseen.
func (s *EpochSet) Extend(n int) {
	for len(s.stamp) < n {
		s.stamp = append(s.stamp, 0)
	}
}

// Seen stamps id for the current epoch and reports whether it had
// already been stamped since Begin.
func (s *EpochSet) Seen(id int) bool {
	if s.stamp[id] == s.epoch {
		return true
	}
	s.stamp[id] = s.epoch
	return false
}

// Index is an LSH-banded min-hash bucket index over dense integer ids
// (cluster numbers). Ids are registered with their signatures via Add;
// Scan walks a query signature's buckets in hash order, deduplicates
// candidates with the epoch set, and hands each distinct candidate to
// the probe until one is accepted — exactly the candidate iteration
// order of the batch clusterer, so greedy assignment through an Index
// reproduces batch assignments bit for bit.
type Index struct {
	buckets map[uint64][]int32
	seen    EpochSet
	n       int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{buckets: make(map[uint64][]int32)}
}

// bucketKey mixes a hash function index into its min-hash value so all
// signatures share one bucket map.
func bucketKey(hashIdx int, v uint64) uint64 {
	return uint64(hashIdx)<<58 ^ v&(1<<58-1)
}

// Add registers the next id with its signatures and returns it.
func (x *Index) Add(sigs []uint64) int {
	id := x.n
	x.n++
	x.seen.Extend(x.n)
	for hi, sig := range sigs {
		k := bucketKey(hi, sig)
		x.buckets[k] = append(x.buckets[k], int32(id))
	}
	return id
}

// Scan visits every distinct candidate id sharing at least one
// signature bucket with sigs, in hash-then-insertion order, calling
// probe on each until probe returns true. It returns the accepted id,
// or -1 when no candidate is accepted. Scan allocates nothing.
func (x *Index) Scan(sigs []uint64, probe func(id int) bool) int {
	x.seen.Begin()
	for hi, sig := range sigs {
		for _, ci := range x.buckets[bucketKey(hi, sig)] {
			id := int(ci)
			if x.seen.Seen(id) {
				continue
			}
			if probe(id) {
				return id
			}
		}
	}
	return -1
}
