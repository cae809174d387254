// Package object implements the prior-work DNA storage architecture the
// paper compares against (Section 1, [23]): a flat key-value store where
// each object is defined by its own primer pair, internal addresses are
// maximum-density (dense) indexes, retrieval always amplifies and
// sequences the whole object, and updates are naïve — a fully
// resynthesized copy under a fresh primer pair, with the old copy left
// in the tube and its primer pair wasted (Section 5.1).
package object

import (
	"errors"
	"fmt"
	"math"

	"dnastore/internal/binding"
	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/seqsim"
	"dnastore/internal/streamdecode"
)

// Errors returned by the object store.
var (
	ErrNotFound  = errors.New("object: not found")
	ErrNoPrimers = errors.New("object: primer budget exhausted")
)

// Config parameterizes the baseline store.
type Config struct {
	Geometry      layout.Geometry
	Seed          uint64
	Synthesis     pool.SynthesisParams
	PCR           pcr.Params
	Rates         channel.Rates
	Decode        decode.Config
	CoverageDepth float64
	// CapacityFactor bounds each PCR as in package blockstore.
	CapacityFactor float64
}

// DefaultConfig mirrors the paper's baseline: same strands, dense
// indexing over the same 10-base index field (up to 4^10 molecules per
// object).
func DefaultConfig() Config {
	return Config{
		Geometry:       layout.PaperGeometry(),
		Seed:           1,
		Synthesis:      pool.DefaultTwist(),
		PCR:            pcr.DefaultParams(),
		Rates:          channel.Illumina(),
		Decode:         decode.DefaultConfig(),
		CoverageDepth:  10,
		CapacityFactor: 6,
	}
}

// Costs tracks the physical costs compared in Section 7.5.
type Costs struct {
	StrandsSynthesized int
	PrimerPairsUsed    int
	PrimerPairsWasted  int // pairs stranded by naïve updates
	ReadsSequenced     int
	PCRReactions       int
}

// Store is the baseline key-value DNA store.
type Store struct {
	cfg      Config
	tube     *pool.Pool
	objects  map[string]*Object
	primers  []dna.Seq
	nextPair int
	src      *rng.Source
	costs    Costs
}

// Object is one stored value.
type Object struct {
	store      *Store
	name       string
	fwd, rev   dna.Seq
	tree       *indextree.Tree
	rand       *codec.Randomizer
	unit       *layout.UnitCodec
	pipeline   *decode.Pipeline
	size       int // data length in bytes
	units      int
	generation int // bumped by each naïve update
	noise      *rng.Source
}

// New creates a baseline store over the given primer library.
func New(cfg Config, primers []dna.Seq) (*Store, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if len(primers) < 2 {
		return nil, fmt.Errorf("object: need at least 2 primers")
	}
	cp := make([]dna.Seq, len(primers))
	for i, p := range primers {
		if len(p) != cfg.Geometry.PrimerLen {
			return nil, fmt.Errorf("object: primer %d length %d", i, len(p))
		}
		cp[i] = p.Clone()
	}
	if cfg.PCR.Provider == nil {
		// The baseline re-reads whole objects against a mostly-static
		// tube, the ideal binding-reuse workload; give it its own cache
		// unless the caller threaded one in. Purely a simulator-side
		// speedup: the wet cost meters and outputs are unchanged.
		cfg.PCR.Provider = binding.NewCache(0)
	}
	return &Store{
		cfg:     cfg,
		tube:    pool.New(),
		objects: make(map[string]*Object),
		primers: cp,
		src:     rng.New(cfg.Seed),
	}, nil
}

// Costs returns the accumulated counters.
func (s *Store) Costs() Costs { return s.costs }

// Tube exposes the physical pool.
func (s *Store) Tube() *pool.Pool { return s.tube }

// allocPair consumes the next primer pair.
func (s *Store) allocPair() (fwd, rev dna.Seq, err error) {
	if 2*s.nextPair+1 >= len(s.primers) {
		return nil, nil, ErrNoPrimers
	}
	fwd = s.primers[2*s.nextPair]
	rev = s.primers[2*s.nextPair+1]
	s.nextPair++
	s.costs.PrimerPairsUsed++
	return fwd, rev, nil
}

// buildObject creates the object metadata around a primer pair.
func (s *Store) buildObject(name string, fwd, rev dna.Seq) (*Object, error) {
	tree, err := indextree.NewVariant(s.cfg.Geometry.IndexLen, s.src.Uint64(), indextree.Dense)
	if err != nil {
		return nil, err
	}
	rand := codec.NewRandomizer(s.src.Uint64())
	dcfg := s.cfg.Decode
	dcfg.Geometry = s.cfg.Geometry
	pipeline, err := decode.New(dcfg, tree, fwd, rev, rand)
	if err != nil {
		return nil, err
	}
	return &Object{
		store:    s,
		name:     name,
		fwd:      fwd,
		rev:      rev,
		tree:     tree,
		rand:     rand,
		unit:     pipeline.Unit(),
		pipeline: pipeline,
		noise:    s.src.Fork(),
	}, nil
}

// synthesize writes the object's data as encoding units into the tube.
func (o *Object) synthesize(data []byte) error {
	unitBytes := o.unit.DataBytes()
	o.size = len(data)
	o.units = (len(data) + unitBytes - 1) / unitBytes
	if o.units > o.tree.Leaves() {
		return fmt.Errorf("object: %d units exceed address space", o.units)
	}
	for u := 0; u < o.units; u++ {
		chunk := make([]byte, unitBytes)
		end := (u + 1) * unitBytes
		if end > len(data) {
			end = len(data)
		}
		copy(chunk, data[u*unitBytes:end])
		white := o.rand.Derive(decode.UnitSeed(u, 0)).Apply(chunk)
		payloads, err := o.unit.Encode(white)
		if err != nil {
			return err
		}
		idx, err := o.tree.Encode(u)
		if err != nil {
			return err
		}
		orders := make([]pool.SynthesisOrder, 0, len(payloads))
		for intra, pl := range payloads {
			seq, err := o.store.cfg.Geometry.Assemble(o.fwd, o.rev, layout.Strand{
				Index: idx, Version: 0, Intra: intra, Payload: pl,
			})
			if err != nil {
				return err
			}
			orders = append(orders, pool.SynthesisOrder{
				Seq: seq,
				Meta: pool.Meta{
					Partition: fmt.Sprintf("%s#%d", o.name, o.generation),
					Block:     u, Intra: intra, OriginBlock: u,
				},
			})
		}
		synth, err := pool.Synthesize(o.noise, orders, o.store.cfg.Synthesis)
		if err != nil {
			return err
		}
		o.store.tube.MixInto(synth, 1)
		o.store.costs.StrandsSynthesized += len(orders)
	}
	return nil
}

// Put stores a new object.
func (s *Store) Put(name string, data []byte) error {
	if _, dup := s.objects[name]; dup {
		return fmt.Errorf("object: %q exists (use Update)", name)
	}
	fwd, rev, err := s.allocPair()
	if err != nil {
		return err
	}
	obj, err := s.buildObject(name, fwd, rev)
	if err != nil {
		return err
	}
	if err := obj.synthesize(data); err != nil {
		return err
	}
	s.objects[name] = obj
	return nil
}

// Units returns the number of encoding units an object occupies.
func (s *Store) Units(name string) (int, error) {
	obj, ok := s.objects[name]
	if !ok {
		return 0, ErrNotFound
	}
	return obj.units, nil
}

// Generation returns how many times the object has been re-created by
// naïve updates.
func (s *Store) Generation(name string) (int, error) {
	obj, ok := s.objects[name]
	if !ok {
		return 0, ErrNotFound
	}
	return obj.generation, nil
}

// Get retrieves the whole object: one PCR with the object's primers,
// sequencing of the entire readout, and a full-budget decode of every
// unit. There is no smaller unit of access in the baseline (the
// Section 7.1 cost structure).
func (s *Store) Get(name string) ([]byte, error) {
	obj, ok := s.objects[name]
	if !ok {
		return nil, ErrNotFound
	}
	params := s.cfg.PCR
	params.Capacity = s.cfg.CapacityFactor * s.tube.Total()
	s.costs.PCRReactions++
	amplified, _, err := pcr.Run(s.tube, []pcr.Primer{{Fwd: obj.fwd, Rev: obj.rev, Conc: 1}}, params)
	if err != nil {
		return nil, err
	}
	nreads := int(math.Ceil(float64(obj.units*obj.unit.Molecules()) * s.cfg.CoverageDepth * 1.5))
	s.costs.ReadsSequenced += nreads
	reads, err := seqsim.Sample(obj.noise, amplified, nreads, s.cfg.Rates)
	if err != nil {
		return nil, err
	}
	seqs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	decoded, err := streamdecode.Decode(obj.pipeline, seqs, -1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, obj.size)
	for u := 0; u < obj.units; u++ {
		res, ok := decoded[u]
		if !ok {
			return nil, fmt.Errorf("%w: unit %d not recovered", decode.ErrInsufficientCoverage, u)
		}
		raw, ok := res.Versions[0]
		if !ok {
			cause := res.Err()
			if cause == nil {
				cause = decode.ErrDecode
			}
			return nil, fmt.Errorf("%w: unit %d empty", cause, u)
		}
		out = append(out, raw...)
	}
	return out[:obj.size], nil
}

// Update performs the naïve update of Section 5.1: synthesize a brand
// new copy of the full object under a fresh primer pair, abandon the old
// copy in the tube, and waste the old pair.
func (s *Store) Update(name string, data []byte) error {
	obj, ok := s.objects[name]
	if !ok {
		return ErrNotFound
	}
	fwd, rev, err := s.allocPair()
	if err != nil {
		return err
	}
	s.costs.PrimerPairsWasted++ // the old pair still tags dead data
	gen := obj.generation + 1
	fresh, err := s.buildObject(name, fwd, rev)
	if err != nil {
		return err
	}
	fresh.generation = gen
	if err := fresh.synthesize(data); err != nil {
		return err
	}
	s.objects[name] = fresh
	return nil
}
