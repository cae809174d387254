// Package cluster groups noisy sequencing reads by their origin strand.
//
// This is the role played by Rashtchian et al.'s distributed clustering
// in the paper's pipeline (Sections 2.1.2 and 6.6): reads are clustered
// under edit distance so that each cluster ideally holds all reads of one
// original molecule. The implementation bins reads by q-gram min-hash
// signatures and then runs greedy leader clustering with a banded edit
// distance check, which keeps the comparison count near-linear for the
// read volumes the simulator produces.
package cluster

import (
	"fmt"
	"sort"

	"dnastore/internal/dna"
	"dnastore/internal/sketch"
)

// Config tunes the clustering.
type Config struct {
	// Q is the q-gram length used for signatures.
	Q int
	// NumHashes is the number of independent min-hash signatures; a read
	// joins a candidate bucket if any signature matches.
	NumHashes int
	// MaxDist is the maximum edit distance between a read and a cluster
	// representative for the read to join the cluster.
	MaxDist int
}

// DefaultConfig returns parameters suited to 150-base reads at ~1%
// combined error rates.
func DefaultConfig() Config {
	return Config{Q: 12, NumHashes: 4, MaxDist: 20}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Signer().Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if c.MaxDist < 0 {
		return fmt.Errorf("cluster: negative MaxDist")
	}
	return nil
}

// Signer returns the sketch signer matching the configuration.
func (c Config) Signer() sketch.Signer {
	return sketch.Signer{Q: c.Q, NumHashes: c.NumHashes}
}

// Group clusters the reads and returns clusters as index lists into the
// input slice. The first index of each cluster is its representative.
// Clusters are returned sorted by size, largest first, which is the
// order the paper's decoding procedure consumes them in (Section 8,
// step 3).
//
// Group is the batch form of greedy leader clustering; the incremental
// engine in package streamdecode runs the same assignment loop over the
// same sketch primitives, which keeps its assignments identical to
// Group's for any prefix of the read stream.
func Group(reads []dna.Seq, cfg Config) ([][]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	signer := cfg.Signer()
	var clusters [][]int // member lists; members[0] is the representative
	// Representatives are compared against every candidate read, so each
	// is compiled once into its bit-parallel Eq tables when its cluster
	// is created; reps is parallel to clusters.
	var reps []*dna.Pattern
	index := sketch.NewIndex()
	sigs := make([]uint64, cfg.NumHashes)
	var read dna.Seq // current read, visible to the scan probe
	probe := func(ci int) bool { return withinDist(reps[ci], read, cfg.MaxDist) }
	for ri := range reads {
		read = reads[ri]
		signer.Into(read, sigs)
		if joined := index.Scan(sigs, probe); joined >= 0 {
			clusters[joined] = append(clusters[joined], ri)
			continue
		}
		// New cluster with this read as representative; register its
		// signatures.
		index.Add(sigs)
		clusters = append(clusters, []int{ri})
		reps = append(reps, dna.CompilePattern(read))
	}
	sort.SliceStable(clusters, func(i, j int) bool { return len(clusters[i]) > len(clusters[j]) })
	return clusters, nil
}

// stagedDist is the cheap first-stage distance budget of withinDist.
const stagedDist = 6

// withinDist reports whether the edit distance between the compiled
// representative and the read is at most maxDist, identical in outcome
// to rep.LevenshteinAtMost(read, maxDist). The staged probe is a
// smaller win than it was for the scalar banded DP (the blocked kernel
// advances whole 64-row blocks either way), but a stagedDist band fits
// one block per column where the MaxDist band straddles two, and joins
// — which the probe answers outright — dominate bucket candidates, so
// the two-stage check still measures ~10% faster on Group2kReads than
// a single MaxDist pass; rejects pay for both stages.
func withinDist(rep *dna.Pattern, read dna.Seq, maxDist int) bool {
	if maxDist > stagedDist {
		if rep.LevenshteinAtMost(read, stagedDist) {
			return true
		}
	}
	return rep.LevenshteinAtMost(read, maxDist)
}

// WithinDist is the exact membership check of the greedy clusterer,
// exported so the streaming engine's incremental assignment reproduces
// Group's decisions probe for probe.
func WithinDist(rep *dna.Pattern, read dna.Seq, maxDist int) bool {
	return withinDist(rep, read, maxDist)
}

// ShardOf maps a block address to one of shards assignment shards. The
// streaming engine partitions its greedy-assignment state by this key
// so each shard clusters its own blocks' reads independently (reads of
// one block always land in one shard, which is what keeps per-block
// cluster sets DeepEqual to Group's); the pore gate and coverage
// accounting use the same key so a shard's floor state is self-
// contained. shards <= 1 collapses to a single shard.
func ShardOf(block, shards int) int {
	if shards <= 1 || block < 0 {
		return 0
	}
	return block % shards
}
