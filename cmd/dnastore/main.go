// Command dnastore is a small command-line block device backed by the
// simulated DNA store. Because the physical pool lives only in memory,
// persistence works the way a digital front-end for DNA storage would:
// every mutation is appended to a journal file, and each invocation
// replays the journal to re-create the tube before executing the
// requested operation.
//
// Usage:
//
//	dnastore -journal tube.json create mydocs
//	dnastore -journal tube.json write mydocs 3 "block three content"
//	dnastore -journal tube.json writebatch mydocs 0 "block zero" 1 "block one" 2 "block two"
//	dnastore -journal tube.json update mydocs 3 0 5 0 "patched"
//	dnastore -journal tube.json updatebatch mydocs 0 0 5 0 "fix a" 1 0 5 0 "fix b"
//	dnastore -journal tube.json read mydocs 3
//	dnastore -journal tube.json range mydocs 0 7
//	dnastore -journal tube.json costs
//	dnastore -journal tube.json -decay accelerated create mydocs
//	dnastore -journal tube.json advance 20
//	dnastore -journal tube.json health mydocs 0 7
//	dnastore -journal tube.json scrub
//
// The -decay flag picks the tube's aging profile when the journal is
// first created; thereafter the journal remembers it. Aging (advance)
// and maintenance (scrub) are journaled mutations like writes, so a
// replay rebuilds the same aged tube byte for byte.
//
// A mutating verb's arguments parse into the journal entry it commits,
// and one apply function runs every entry, live or replayed. The
// read-only verbs (read, range, health, digest, costs) are not
// journaled.
//
// The journal is crash-consistent: entries are length-prefixed,
// checksummed, and fsynced before an operation is acknowledged, and a
// torn tail left by a crash mid-append is detected and truncated on
// the next open. Journals from older builds (whole-file JSON) load
// as-is and migrate to the framed format on their next append.
//
// Exit codes: 0 success, 1 generic failure, 2 usage, 3 a read failed
// for insufficient coverage (curable: re-amplify or scrub), 4 a read
// failed with the Reed-Solomon margin exceeded (strands corrupted;
// only re-synthesis cures it).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dnastore"
)

// journalEntry is one persisted mutation. Batched mutations journal as
// a single entry: a batch draws noise once per commit, so replaying it
// op by op would rebuild a different tube.
type journalEntry struct {
	Op        string `json:"op"` // "create", "write", "update", "writebatch", "updatebatch", "advance", "scrub"
	Partition string `json:"partition,omitempty"`
	Block     int    `json:"block,omitempty"`
	Data      []byte `json:"data,omitempty"`
	// Days is the aging horizon of an "advance" entry.
	Days float64 `json:"days,omitempty"`
	// Scrub carries the maintenance policy of a "scrub" entry, so a
	// replay repeats the repairs exactly even if the defaults move.
	Scrub *dnastore.ScrubPolicy `json:"scrub,omitempty"`
	// Patch fields for "update".
	DeleteStart int    `json:"deleteStart,omitempty"`
	DeleteCount int    `json:"deleteCount,omitempty"`
	InsertPos   int    `json:"insertPos,omitempty"`
	Insert      []byte `json:"insert,omitempty"`
	// Items carries the staged operations of a batch entry.
	Items []journalItem `json:"items,omitempty"`
}

// journalItem is one staged operation inside a batch journal entry.
type journalItem struct {
	Block       int    `json:"block"`
	Data        []byte `json:"data,omitempty"`
	DeleteStart int    `json:"deleteStart,omitempty"`
	DeleteCount int    `json:"deleteCount,omitempty"`
	InsertPos   int    `json:"insertPos,omitempty"`
	Insert      []byte `json:"insert,omitempty"`
}

// errSimulatedCrash is returned by the -crash-after-append testing
// hook: the entry is durable in the journal, but the process dies
// before acknowledging the operation — the window crash-recovery
// replay must close.
var errSimulatedCrash = errors.New("simulated crash after journal append")

// crashAfterAppend arms the crash hook; set by the hidden
// -crash-after-append flag.
var crashAfterAppend = false

// decayProfile resolves the -decay flag value to a profile.
func decayProfile(name string) (*dnastore.DecayProfile, error) {
	switch name {
	case "", "off":
		return nil, nil
	case "room":
		p := dnastore.RoomTempDecay()
		return &p, nil
	case "accelerated", "accel":
		p := dnastore.AcceleratedDecay()
		return &p, nil
	}
	return nil, fmt.Errorf("unknown decay profile %q (want off, room or accelerated)", name)
}

// verbs parses each journaled verb's arguments into the entry it
// journals. A verb takes min arguments, or with a step, min plus any
// whole number of step-argument repeats; usage is its arity error. A
// verb missing here is read-only and never journaled.
var verbs = map[string]struct {
	min, step int
	usage     string
	parse     func(a []string) (journalEntry, error)
}{
	"create": {1, 0, "create needs a partition name",
		func(a []string) (journalEntry, error) { return journalEntry{Partition: a[0]}, nil }},
	"write": {3, 0, "write needs: partition block text",
		func(a []string) (journalEntry, error) { return single(a, 2) }},
	"writebatch": {3, 2, "writebatch needs: partition, then block/text pairs",
		func(a []string) (journalEntry, error) { return batch(a, 2) }},
	"update": {6, 0, "update needs: partition block delStart delCount insPos text",
		func(a []string) (journalEntry, error) { return single(a, 5) }},
	"updatebatch": {6, 5, "updatebatch needs: partition, then block/delStart/delCount/insPos/text 5-tuples",
		func(a []string) (journalEntry, error) { return batch(a, 5) }},
	"advance": {1, 0, "advance needs: days", func(a []string) (journalEntry, error) {
		days, err := strconv.ParseFloat(a[0], 64)
		if err != nil {
			return journalEntry{}, fmt.Errorf("not a number of days: %q", a[0])
		}
		return journalEntry{Days: days}, nil
	}},
	"scrub": {0, 0, "scrub takes no arguments", func([]string) (journalEntry, error) {
		// The policy is journaled so a replay repeats the same repairs.
		pol := dnastore.DefaultScrubPolicy()
		return journalEntry{Scrub: &pol}, nil
	}},
}

// parseEntry parses a journaled verb's argv into its entry.
func parseEntry(args []string) (journalEntry, error) {
	v := verbs[args[0]]
	a := args[1:]
	if len(a) < v.min || len(a) > v.min && (v.step == 0 || (len(a)-v.min)%v.step != 0) {
		return journalEntry{}, errors.New(v.usage)
	}
	e, err := v.parse(a)
	e.Op = args[0]
	return e, err
}

// batch parses a partition name followed by width-argument items:
// "block text" pairs (width 2) or "block delStart delCount insPos
// text" patch tuples (width 5).
func batch(a []string, width int) (journalEntry, error) {
	e := journalEntry{Partition: a[0], Items: make([]journalItem, 0, len(a)/width)}
	for k := 1; k < len(a); k += width {
		n, err := atois(a[k : k+width-1])
		if err != nil {
			return journalEntry{}, err
		}
		it := journalItem{Block: n[0], Data: []byte(a[k+1])}
		if width == 5 {
			it = journalItem{Block: n[0], DeleteStart: n[1], DeleteCount: n[2], InsertPos: n[3], Insert: []byte(a[k+4])}
		}
		e.Items = append(e.Items, it)
	}
	return e, nil
}

// single parses a one-item batch into the entry of write or update,
// which journal the item's fields at the top level.
func single(a []string, width int) (journalEntry, error) {
	e, err := batch(a, width)
	if err != nil {
		return journalEntry{}, err
	}
	it := e.Items[0]
	return journalEntry{
		Partition: e.Partition, Block: it.Block, Data: it.Data,
		DeleteStart: it.DeleteStart, DeleteCount: it.DeleteCount, InsertPos: it.InsertPos, Insert: it.Insert,
	}, nil
}

// atois parses decimal integer arguments.
func atois(args []string) ([]int, error) {
	n := make([]int, len(args))
	for i, s := range args {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("not a number: %q", s)
		}
		n[i] = v
	}
	return n, nil
}

// apply runs one journaled mutation on sys, live or replayed, and
// returns the line that acknowledges it.
func apply(sys *dnastore.System, e journalEntry) (string, error) {
	switch e.Op {
	case "create":
		if _, err := sys.CreatePartition(e.Partition); err != nil {
			return "", err
		}
		return fmt.Sprintf("created partition %q", e.Partition), nil
	case "write":
		p, err := partition(sys, e.Partition)
		if err != nil {
			return "", err
		}
		before := sys.Costs().StrandsSynthesized
		if err := p.WriteBlock(e.Block, e.Data); err != nil {
			return "", err
		}
		return fmt.Sprintf("synthesized block %d of %q (%d strands)",
			e.Block, e.Partition, sys.Costs().StrandsSynthesized-before), nil
	case "writebatch":
		p, err := partition(sys, e.Partition)
		if err != nil {
			return "", err
		}
		b := p.Batch()
		for _, it := range e.Items {
			b.Write(it.Block, it.Data)
		}
		before := sys.Costs().StrandsSynthesized
		if err := b.Apply(); err != nil {
			return "", err
		}
		return fmt.Sprintf("synthesized %d blocks of %q in one batch (%d strands)",
			len(e.Items), e.Partition, sys.Costs().StrandsSynthesized-before), nil
	case "update":
		p, err := partition(sys, e.Partition)
		if err != nil {
			return "", err
		}
		patch := dnastore.Patch{DeleteStart: e.DeleteStart, DeleteCount: e.DeleteCount, InsertPos: e.InsertPos, Insert: e.Insert}
		if err := p.UpdateBlock(e.Block, patch); err != nil {
			return "", err
		}
		return fmt.Sprintf("logged update for block %d of %q", e.Block, e.Partition), nil
	case "updatebatch":
		p, err := partition(sys, e.Partition)
		if err != nil {
			return "", err
		}
		patches := make([]dnastore.BlockPatch, len(e.Items))
		for k, it := range e.Items {
			patches[k] = dnastore.BlockPatch{Block: it.Block, Patch: dnastore.Patch{
				DeleteStart: it.DeleteStart, DeleteCount: it.DeleteCount, InsertPos: it.InsertPos, Insert: it.Insert,
			}}
		}
		if err := p.UpdateBlocks(patches); err != nil {
			return "", err
		}
		return fmt.Sprintf("logged %d updates for %q in one batch", len(e.Items), e.Partition), nil
	case "advance":
		st, err := sys.Advance(e.Days)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("aged %g days (tube age %g): %.0f strands lost, %d species extinct, %d mutant species",
			e.Days, sys.AgeDays(), st.StrandsLost, st.SpeciesExtinct, st.MutantSpecies), nil
	case "scrub":
		pol := dnastore.DefaultScrubPolicy()
		if e.Scrub != nil {
			pol = *e.Scrub
		}
		rep, err := sys.Scrub(pol)
		if err != nil {
			return "", err
		}
		var ack strings.Builder
		fmt.Fprintf(&ack, "scrubbed %d blocks: %d flagged, %d repaired (%d boosts, %d resyntheses), %d beyond repair",
			rep.BlocksProbed, rep.BlocksFlagged, rep.Repaired, rep.Boosts, rep.Resyntheses, rep.Failed)
		for _, r := range rep.Flagged {
			fmt.Fprintf(&ack, "\n  %s/%d: %s", r.Partition, r.Block, r.Action)
			if r.Err != nil {
				fmt.Fprintf(&ack, " FAILED: %v", r.Err)
			}
		}
		return ack.String(), nil
	}
	return "", fmt.Errorf("unknown op %q", e.Op)
}

// partition looks up a partition by name.
func partition(sys *dnastore.System, name string) (*dnastore.Partition, error) {
	p, ok := sys.Partition(name)
	if !ok {
		return nil, fmt.Errorf("unknown partition %q", name)
	}
	return p, nil
}

// blockArgs resolves a read-only verb's partition and its nums block
// numbers; usage is the verb's arity error.
func blockArgs(sys *dnastore.System, args []string, nums int, usage string) (*dnastore.Partition, []int, error) {
	if len(args) != 2+nums {
		return nil, nil, errors.New(usage)
	}
	n, err := atois(args[2:])
	if err != nil {
		return nil, nil, err
	}
	p, err := partition(sys, args[1])
	return p, n, err
}

// replay rebuilds the in-memory system from the journal. workers sets
// the read-engine parallelism; it is a per-invocation runtime knob, not
// journal state, because results are byte-identical for every setting.
func (j *journal) replay(workers int) (*dnastore.System, error) {
	sys, err := dnastore.New(dnastore.Options{Seed: j.Seed, Workers: workers, Decay: j.Decay})
	if err != nil {
		return nil, err
	}
	for i, e := range j.Entries {
		if _, err := apply(sys, e); err != nil {
			return nil, fmt.Errorf("journal entry %d: %v", i, err)
		}
	}
	return sys, nil
}

func main() {
	journalPath := flag.String("journal", "dnastore.json", "journal file holding the tube's write history")
	workers := flag.Int("workers", 0, "read-engine workers (0 = serial, -1 = all CPUs)")
	decayName := flag.String("decay", "", "aging profile for a NEW journal: off, room or accelerated")
	crash := flag.Bool("crash-after-append", false, "testing hook: die after the journal append, before acknowledging")
	flag.Parse()
	crashAfterAppend = *crash
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if err := runCommand(*journalPath, *workers, *decayName, args); err != nil {
		fmt.Fprintln(os.Stderr, "dnastore:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a failure to its shell-visible class: callers
// scripting the tube can tell a curable coverage shortfall (3) from
// permanent strand corruption (4) without parsing the message.
func exitCode(err error) int {
	switch {
	case errors.Is(err, dnastore.ErrInsufficientCoverage):
		return 3
	case errors.Is(err, dnastore.ErrRSMarginExceeded):
		return 4
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dnastore [-journal file] [-decay off|room|accelerated] <command> ...
commands:
  create      <partition>
  write       <partition> <block> <text>
  writebatch  <partition> <block> <text> [<block> <text> ...]
  update      <partition> <block> <delStart> <delCount> <insPos> <text>
  updatebatch <partition> <block> <delStart> <delCount> <insPos> <text> [...]
  read        <partition> <block>
  range       <partition> <lo> <hi>
  advance     <days>
  scrub
  health      <partition> <lo> <hi>
  digest
  costs`)
}

func runCommand(journalPath string, workers int, decayName string, args []string) error {
	// A mutation's arguments are checked before the journal is
	// replayed, so a usage error costs no replay.
	_, mutates := verbs[args[0]]
	var e journalEntry
	if mutates {
		var err error
		if e, err = parseEntry(args); err != nil {
			return err
		}
	}
	j, fresh, err := loadJournal(journalPath)
	if err != nil {
		return err
	}
	if fresh {
		// A new tube adopts the requested physics for life.
		if j.Decay, err = decayProfile(decayName); err != nil {
			return err
		}
	} else if decayName != "" {
		return fmt.Errorf("journal %s already exists; its decay profile is fixed", journalPath)
	}
	sys, err := j.replay(workers)
	if err != nil {
		return err
	}
	if !mutates {
		return query(sys, args)
	}
	ack, err := apply(sys, e)
	if err != nil {
		return err
	}
	if err := j.append(e); err != nil {
		return err
	}
	if crashAfterAppend {
		return errSimulatedCrash
	}
	fmt.Println(ack)
	return nil
}

// query runs a read-only verb: its reads are not journaled.
func query(sys *dnastore.System, args []string) error {
	switch args[0] {
	case "read":
		p, n, err := blockArgs(sys, args, 1, "read needs: partition block")
		if err != nil {
			return err
		}
		data, err := p.ReadBlock(n[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", trimZeros(data))
	case "range":
		p, n, err := blockArgs(sys, args, 2, "range needs: partition lo hi")
		if err != nil {
			return err
		}
		// Unwritten and log blocks have no entry: label each by its report.
		res, err := p.Read(dnastore.ReadRequest{Range: &dnastore.Span{Lo: n[0], Hi: n[1]}})
		if err != nil {
			return err
		}
		for i, b := range res.Content {
			fmt.Printf("block %d: %s\n", res.Health[i].Block, trimZeros(b))
		}
	case "health":
		p, n, err := blockArgs(sys, args, 2, "health needs: partition lo hi")
		if err != nil {
			return err
		}
		res, err := p.Read(dnastore.ReadRequest{Range: &dnastore.Span{Lo: n[0], Hi: n[1]}, Mode: dnastore.ReadHealth})
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %-12s %9s %9s %8s\n", "block", "status", "coverage", "rsmargin", "missing")
		for _, h := range res.Health {
			status := "ok"
			switch {
			case errors.Is(h.Err, dnastore.ErrRSMarginExceeded):
				status = "corrupted"
			case errors.Is(h.Err, dnastore.ErrInsufficientCoverage):
				status = "low-cover"
			case h.Err != nil:
				status = "error"
			}
			fmt.Printf("%-6d %-12s %9.2f %9.2f %8d\n",
				h.Block, status, h.Coverage, h.RSMarginUsed, h.MissingSlots)
		}
	case "digest":
		// The tube's physical state digest, for scripting
		// crash-recovery and replay-equivalence checks.
		if len(args) != 1 {
			return errors.New("digest takes no arguments")
		}
		fmt.Printf("%x\n", sys.TubeDigest())
	case "costs":
		c := sys.Costs()
		fmt.Printf("strands synthesized:  %d\n", c.StrandsSynthesized)
		fmt.Printf("primer pairs used:    %d\n", c.PrimerPairsUsed)
		fmt.Printf("elongated primers:    %d\n", c.ElongatedPrimersSynthesized)
		fmt.Printf("reads sequenced:      %d\n", c.ReadsSequenced)
		fmt.Printf("PCR reactions:        %d\n", c.PCRReactions)
		fmt.Printf("reads ejected:        %d\n", c.ReadsEjected)
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}

// trimZeros strips the zero padding of short block writes for display.
func trimZeros(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return b[:end]
}
