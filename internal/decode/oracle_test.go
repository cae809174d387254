package decode

import (
	"dnastore/internal/cluster"
	"dnastore/internal/dna"
)

// referenceDecode is the reference decode of a materialized read set:
// the primer filter over every read, cluster.Group, then DecodeClusters.
// Production decodes run through the streaming engine, whose one-shard
// clusters equal cluster.Group's; this package's tests drive the back
// half through the reference instead, since the engine's package
// imports this one.
func (p *Pipeline) referenceDecode(reads []dna.Seq, target int) (map[int]*BlockResult, error) {
	var kept []dna.Seq
	for _, r := range reads {
		if p.Keep(r) {
			kept = append(kept, r)
		}
	}
	clusters, err := cluster.Group(kept, p.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return p.DecodeClusters(kept, clusters, target)
}

// referenceBlock is referenceDecode of one target block, wrapped up by
// FinishBlock.
func (p *Pipeline) referenceBlock(reads []dna.Seq, block int) (*BlockResult, error) {
	results, err := p.referenceDecode(reads, block)
	return FinishBlock(results, err, block)
}
