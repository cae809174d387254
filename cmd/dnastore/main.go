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

// replay rebuilds the in-memory system from the journal. workers sets
// the read-engine parallelism; it is a per-invocation runtime knob, not
// journal state, because results are byte-identical for every setting.
func (j *journal) replay(workers int) (*dnastore.System, error) {
	sys, err := dnastore.New(dnastore.Options{Seed: j.Seed, Workers: workers, Decay: j.Decay})
	if err != nil {
		return nil, err
	}
	for i, e := range j.Entries {
		switch e.Op {
		case "create":
			if _, err := sys.CreatePartition(e.Partition); err != nil {
				return nil, fmt.Errorf("journal entry %d: %v", i, err)
			}
		case "write":
			p, ok := sys.Partition(e.Partition)
			if !ok {
				return nil, fmt.Errorf("journal entry %d: unknown partition %q", i, e.Partition)
			}
			if err := p.WriteBlock(e.Block, e.Data); err != nil {
				return nil, fmt.Errorf("journal entry %d: %v", i, err)
			}
		case "update":
			p, ok := sys.Partition(e.Partition)
			if !ok {
				return nil, fmt.Errorf("journal entry %d: unknown partition %q", i, e.Partition)
			}
			patch := dnastore.Patch{
				DeleteStart: e.DeleteStart,
				DeleteCount: e.DeleteCount,
				InsertPos:   e.InsertPos,
				Insert:      e.Insert,
			}
			if err := p.UpdateBlock(e.Block, patch); err != nil {
				return nil, fmt.Errorf("journal entry %d: %v", i, err)
			}
		case "writebatch":
			p, ok := sys.Partition(e.Partition)
			if !ok {
				return nil, fmt.Errorf("journal entry %d: unknown partition %q", i, e.Partition)
			}
			b := p.Batch()
			for _, item := range e.Items {
				b.Write(item.Block, item.Data)
			}
			if err := b.Apply(); err != nil {
				return nil, fmt.Errorf("journal entry %d: %v", i, err)
			}
		case "updatebatch":
			p, ok := sys.Partition(e.Partition)
			if !ok {
				return nil, fmt.Errorf("journal entry %d: unknown partition %q", i, e.Partition)
			}
			patches := make([]dnastore.BlockPatch, len(e.Items))
			for k, item := range e.Items {
				patches[k] = dnastore.BlockPatch{Block: item.Block, Patch: dnastore.Patch{
					DeleteStart: item.DeleteStart,
					DeleteCount: item.DeleteCount,
					InsertPos:   item.InsertPos,
					Insert:      item.Insert,
				}}
			}
			if err := p.UpdateBlocks(patches); err != nil {
				return nil, fmt.Errorf("journal entry %d: %v", i, err)
			}
		case "advance":
			if _, err := sys.Advance(e.Days); err != nil {
				return nil, fmt.Errorf("journal entry %d: %v", i, err)
			}
		case "scrub":
			pol := dnastore.DefaultScrubPolicy()
			if e.Scrub != nil {
				pol = *e.Scrub
			}
			if _, err := sys.Scrub(pol); err != nil {
				return nil, fmt.Errorf("journal entry %d: %v", i, err)
			}
		default:
			return nil, fmt.Errorf("journal entry %d: unknown op %q", i, e.Op)
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
	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("not a number: %q", s)
		}
		return v, nil
	}
	switch args[0] {
	case "create":
		if len(args) != 2 {
			return errors.New("create needs a partition name")
		}
		if _, err := sys.CreatePartition(args[1]); err != nil {
			return err
		}
		if err := j.append(journalEntry{Op: "create", Partition: args[1]}); err != nil {
			return err
		}
		fmt.Printf("created partition %q\n", args[1])
	case "write":
		if len(args) != 4 {
			return errors.New("write needs: partition block text")
		}
		block, err := atoi(args[2])
		if err != nil {
			return err
		}
		p, ok := sys.Partition(args[1])
		if !ok {
			return fmt.Errorf("unknown partition %q", args[1])
		}
		if err := p.WriteBlock(block, []byte(args[3])); err != nil {
			return err
		}
		if err := j.append(journalEntry{
			Op: "write", Partition: args[1], Block: block, Data: []byte(args[3]),
		}); err != nil {
			return err
		}
		fmt.Printf("synthesized block %d of %q (15 strands)\n", block, args[1])
	case "update":
		if len(args) != 7 {
			return errors.New("update needs: partition block delStart delCount insPos text")
		}
		block, err := atoi(args[2])
		if err != nil {
			return err
		}
		ds, err := atoi(args[3])
		if err != nil {
			return err
		}
		dc, err := atoi(args[4])
		if err != nil {
			return err
		}
		ip, err := atoi(args[5])
		if err != nil {
			return err
		}
		p, ok := sys.Partition(args[1])
		if !ok {
			return fmt.Errorf("unknown partition %q", args[1])
		}
		patch := dnastore.Patch{DeleteStart: ds, DeleteCount: dc, InsertPos: ip, Insert: []byte(args[6])}
		if err := p.UpdateBlock(block, patch); err != nil {
			return err
		}
		if err := j.append(journalEntry{
			Op: "update", Partition: args[1], Block: block,
			DeleteStart: ds, DeleteCount: dc, InsertPos: ip, Insert: []byte(args[6]),
		}); err != nil {
			return err
		}
		fmt.Printf("logged update %d for block %d of %q\n", p.Versions(block), block, args[1])
	case "writebatch":
		if len(args) < 4 || len(args)%2 != 0 {
			return errors.New("writebatch needs: partition, then block/text pairs")
		}
		p, ok := sys.Partition(args[1])
		if !ok {
			return fmt.Errorf("unknown partition %q", args[1])
		}
		b := p.Batch()
		items := make([]journalItem, 0, (len(args)-2)/2)
		for k := 2; k < len(args); k += 2 {
			block, err := atoi(args[k])
			if err != nil {
				return err
			}
			b.Write(block, []byte(args[k+1]))
			items = append(items, journalItem{Block: block, Data: []byte(args[k+1])})
		}
		before := sys.Costs().StrandsSynthesized
		if err := b.Apply(); err != nil {
			return err
		}
		if err := j.append(journalEntry{Op: "writebatch", Partition: args[1], Items: items}); err != nil {
			return err
		}
		fmt.Printf("synthesized %d blocks of %q in one batch (%d strands)\n",
			len(items), args[1], sys.Costs().StrandsSynthesized-before)
	case "updatebatch":
		if len(args) < 7 || (len(args)-2)%5 != 0 {
			return errors.New("updatebatch needs: partition, then block/delStart/delCount/insPos/text 5-tuples")
		}
		p, ok := sys.Partition(args[1])
		if !ok {
			return fmt.Errorf("unknown partition %q", args[1])
		}
		patches := make([]dnastore.BlockPatch, 0, (len(args)-2)/5)
		items := make([]journalItem, 0, cap(patches))
		for k := 2; k < len(args); k += 5 {
			block, err := atoi(args[k])
			if err != nil {
				return err
			}
			ds, err := atoi(args[k+1])
			if err != nil {
				return err
			}
			dc, err := atoi(args[k+2])
			if err != nil {
				return err
			}
			ip, err := atoi(args[k+3])
			if err != nil {
				return err
			}
			patches = append(patches, dnastore.BlockPatch{Block: block, Patch: dnastore.Patch{
				DeleteStart: ds, DeleteCount: dc, InsertPos: ip, Insert: []byte(args[k+4]),
			}})
			items = append(items, journalItem{
				Block: block, DeleteStart: ds, DeleteCount: dc, InsertPos: ip, Insert: []byte(args[k+4]),
			})
		}
		if err := p.UpdateBlocks(patches); err != nil {
			return err
		}
		if err := j.append(journalEntry{Op: "updatebatch", Partition: args[1], Items: items}); err != nil {
			return err
		}
		fmt.Printf("logged %d updates for %q in one batch\n", len(items), args[1])
	case "read":
		if len(args) != 3 {
			return errors.New("read needs: partition block")
		}
		block, err := atoi(args[2])
		if err != nil {
			return err
		}
		p, ok := sys.Partition(args[1])
		if !ok {
			return fmt.Errorf("unknown partition %q", args[1])
		}
		data, err := p.ReadBlock(block)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", trimZeros(data))
	case "range":
		if len(args) != 4 {
			return errors.New("range needs: partition lo hi")
		}
		lo, err := atoi(args[2])
		if err != nil {
			return err
		}
		hi, err := atoi(args[3])
		if err != nil {
			return err
		}
		p, ok := sys.Partition(args[1])
		if !ok {
			return fmt.Errorf("unknown partition %q", args[1])
		}
		// Unwritten and log blocks have no entry: label each by its report.
		res, err := p.Read(dnastore.ReadRequest{Range: &dnastore.Span{Lo: lo, Hi: hi}})
		if err != nil {
			return err
		}
		for i, b := range res.Content {
			fmt.Printf("block %d: %s\n", res.Health[i].Block, trimZeros(b))
		}
	case "advance":
		if len(args) != 2 {
			return errors.New("advance needs: days")
		}
		days, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return fmt.Errorf("not a number of days: %q", args[1])
		}
		stats, err := sys.Advance(days)
		if err != nil {
			return err
		}
		if err := j.append(journalEntry{Op: "advance", Days: days}); err != nil {
			return err
		}
		fmt.Printf("aged %g days (tube age %g): %.0f strands lost, %d species extinct, %d mutant species\n",
			days, sys.AgeDays(), stats.StrandsLost, stats.SpeciesExtinct, stats.MutantSpecies)
	case "scrub":
		if len(args) != 1 {
			return errors.New("scrub takes no arguments")
		}
		pol := dnastore.DefaultScrubPolicy()
		report, err := sys.Scrub(pol)
		if err != nil {
			return err
		}
		if err := j.append(journalEntry{Op: "scrub", Scrub: &pol}); err != nil {
			return err
		}
		fmt.Printf("scrubbed %d blocks: %d flagged, %d repaired (%d boosts, %d resyntheses), %d beyond repair\n",
			report.BlocksProbed, report.BlocksFlagged, report.Repaired,
			report.Boosts, report.Resyntheses, report.Failed)
		for _, r := range report.Flagged {
			fmt.Printf("  %s/%d: %s", r.Partition, r.Block, r.Action)
			if r.Err != nil {
				fmt.Printf(" FAILED: %v", r.Err)
			}
			fmt.Println()
		}
	case "health":
		// Read-only diagnosis: like read/range, it is not journaled.
		if len(args) != 4 {
			return errors.New("health needs: partition lo hi")
		}
		lo, err := atoi(args[2])
		if err != nil {
			return err
		}
		hi, err := atoi(args[3])
		if err != nil {
			return err
		}
		p, ok := sys.Partition(args[1])
		if !ok {
			return fmt.Errorf("unknown partition %q", args[1])
		}
		res, err := p.Read(dnastore.ReadRequest{Range: &dnastore.Span{Lo: lo, Hi: hi}, Mode: dnastore.ReadHealth})
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
		// Read-only: the tube's physical state digest, for scripting
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
