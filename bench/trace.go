package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dnastore/internal/binding"
	"dnastore/internal/dna"
	"dnastore/internal/pool"
)

// span is one traced interval: an operation (parent -1), a store call
// under it, or a PCR reaction under the call that ran it. A reaction
// span runs from the reaction's binding Begin to its last Bind, the part
// of pcr.Run the binding boundary can see.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of one traced run in memory. Operations and
// their store calls are sequential (one closed-loop client); reactions
// begin concurrently on the store's workers. A nil tracer records
// nothing, so untraced runs pay one nil check per store call.
type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	op        int // index of the current operation
	opSpan    int
	call      int // open store-call span, parent of new reactions
	reactions []*countingReaction

	totals reactionTotals // over closed reactions
}

// reactionTotals sums the reactions a tracer has closed.
type reactionTotals struct {
	spanNS    int64 // Begin to last Bind
	bindCalls int64
	bindNS    int64 // inside the inner Bind
}

func (a reactionTotals) sub(b reactionTotals) reactionTotals {
	return reactionTotals{a.spanNS - b.spanNS, a.bindCalls - b.bindCalls, a.bindNS - b.bindNS}
}

// sum returns the totals so far.
func (t *tracer) sum() reactionTotals {
	if t == nil {
		return reactionTotals{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals
}

func newTracer() *tracer { return &tracer{t0: time.Now(), opSpan: -1, call: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) open(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

// startOp opens the span of operation i.
func (t *tracer) startOp(i int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = i
	t.opSpan = t.open(-1, name)
	t.mu.Unlock()
}

// endOp closes the current operation's span.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[t.opSpan].End = t.now()
	t.opSpan = -1
	t.mu.Unlock()
}

// begin opens a store-call span under the current operation.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.call = t.open(t.opSpan, name)
	return t.call
}

// end closes a store-call span and the spans of every reaction it ran:
// pcr.Run has returned by the time the call does.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	for _, r := range t.reactions {
		last := max(r.last.Load(), r.start)
		t.spans = append(t.spans, span{
			ID: len(t.spans), Parent: r.parent, Op: t.spans[r.parent].Op,
			Name: "pcr.reaction", Start: r.start, End: last,
		})
		t.totals.spanNS += last - r.start
		t.totals.bindCalls += r.calls.Load()
		t.totals.bindNS += r.busy.Load()
	}
	t.reactions = t.reactions[:0]
	t.call = -1
}

// addReaction tracks a reaction begun under the open store call;
// reactions outside any call (a setup scrub) go untracked.
func (t *tracer) addReaction(r *countingReaction) {
	t.mu.Lock()
	if r.parent = t.call; r.parent >= 0 {
		t.reactions = append(t.reactions, r)
	}
	t.mu.Unlock()
}

// countingProvider is the traced run's PCR binding provider: the same
// binding.Cache the store builds for itself, wrapped to count and time
// every Bind and to open a span per reaction. Bindings are pure
// functions of their sequences, so the wrapper changes no reaction's
// output.
type countingProvider struct {
	inner *binding.Cache
	tr    *tracer
}

func newCountingProvider(tr *tracer) *countingProvider {
	return &countingProvider{inner: binding.NewCache(0), tr: tr}
}

func (c *countingProvider) Begin(pairs []binding.Pair, maxDist int, input *pool.Pool) binding.Reaction {
	r := &countingReaction{inner: c.inner.Begin(pairs, maxDist, input), tr: c.tr, start: c.tr.now()}
	c.tr.addReaction(r)
	return r
}

type countingReaction struct {
	inner  binding.Reaction
	tr     *tracer
	parent int
	start  int64
	last   atomic.Int64 // latest Bind return
	calls  atomic.Int64
	busy   atomic.Int64 // ns inside the inner Bind, summed over workers
}

func (r *countingReaction) Bind(pi, si int, template dna.Packed) binding.Binding {
	t0 := r.tr.now()
	b := r.inner.Bind(pi, si, template)
	t1 := r.tr.now()
	r.calls.Add(1)
	r.busy.Add(t1 - t0)
	for {
		prev := r.last.Load()
		if t1 <= prev || r.last.CompareAndSwap(prev, t1) {
			break
		}
	}
	return b
}
