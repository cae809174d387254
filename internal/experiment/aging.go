package experiment

import (
	"bytes"
	"fmt"
	"io"

	"dnastore/internal/blockstore"
	"dnastore/internal/decay"
)

// AgingPoint is one checkpoint of the tube-aging study: the fraction
// of the payload still decodable in each arm, and what the maintained
// arm's scrub pass did and cost up to this horizon.
type AgingPoint struct {
	Days           float64
	UnattendedFrac float64 // decoded payload bytes, never-scrubbed arm
	MaintainedFrac float64 // decoded payload bytes, scrub-and-repair arm
	Flagged        int     // blocks the checkpoint's scrub flagged
	Repaired       int
	Failed         int
	RepairReads    int // cumulative reads spent probing and repairing
}

// AgingResult reports the tube-aging study: two identically seeded
// tubes age under an accelerated decay profile, one left alone and one
// scrubbed (with auto repair) at every checkpoint; both are
// health-read at each checkpoint to measure surviving payload bytes.
type AgingResult struct {
	Blocks          int
	Days            float64 // full horizon
	Steps           int
	Points          []AgingPoint
	MonotoneDecline bool    // unattended fraction never rose
	FirstLossDays   float64 // first checkpoint where the unattended arm lost bytes (0 = never)
	RecoveredFrac   float64 // maintained fraction at that checkpoint
}

// agingStore builds one arm of the study: a 16-block tube aging under
// the accelerated profile, seeded like the write study so both arms
// (and every rerun) share one synthesis history.
func agingStore(workers int) (*blockstore.Store, *blockstore.Partition, [][]byte, error) {
	primers, err := SearchPrimers(73, 2)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = 73
	cfg.TreeDepth = 3
	cfg.Geometry.IndexLen = 6
	cfg.Workers = workers
	prof := decay.Accelerated()
	cfg.Decay = &prof
	s, err := blockstore.New(cfg, primers)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := s.CreatePartition("archive")
	if err != nil {
		return nil, nil, nil, err
	}
	payload := make([][]byte, 16)
	for i := range payload {
		payload[i] = []byte(fmt.Sprintf("aging study block %02d payload", i))
		if err := p.WriteBlock(i, payload[i]); err != nil {
			return nil, nil, nil, err
		}
	}
	return s, p, payload, nil
}

// decodedFrac health-reads every payload block and returns the
// fraction of payload bytes still recoverable. A block that fails the
// standard read is re-probed once at 4x sequencing depth before its
// bytes count as lost: one shallow read falling short is measurement
// noise, not data loss — an operator re-sequences deeper before
// declaring a block gone, and only blocks that stay undecodable under
// the escalated budget are physically degraded.
func decodedFrac(p *blockstore.Partition, payload [][]byte) (float64, error) {
	blocks := make([]int, len(payload))
	total := 0
	for i := range payload {
		blocks[i] = i
		total += len(payload[i])
	}
	res, err := p.Read(blockstore.ReadRequest{Blocks: blocks, Mode: blockstore.ReadHealth})
	if err != nil {
		return 0, err
	}
	got := 0
	for i, c := range res.Content {
		if c == nil {
			deep, err := p.Read(blockstore.ReadRequest{Blocks: []int{i}, Mode: blockstore.ReadHealth, Scale: 4})
			if err != nil {
				return 0, err
			}
			c = deep.Content[0]
		}
		if c != nil && bytes.Equal(c[:len(payload[i])], payload[i]) {
			got += len(payload[i])
		}
	}
	return float64(got) / float64(total), nil
}

// AgingStudy ages two identically seeded tubes across steps evenly
// spaced checkpoints of the given horizon. The unattended arm only
// gets health-read; the maintained arm is scrubbed (auto repair)
// before each checkpoint's read. Both arms observe the tube the same
// number of times, so the comparison isolates the value of repair.
func AgingStudy(days float64, steps, workers int) (*AgingResult, error) {
	if days <= 0 {
		days = 1000
	}
	if steps < 1 {
		steps = 6
	}
	if workers < 1 {
		workers = 1
	}
	rawStore, rawPart, payload, err := agingStore(workers)
	if err != nil {
		return nil, err
	}
	maintStore, maintPart, _, err := agingStore(workers)
	if err != nil {
		return nil, err
	}

	r := &AgingResult{Blocks: len(payload), Days: days, Steps: steps, MonotoneDecline: true}
	step := days / float64(steps)
	prevFrac := 1.0
	repairReads := 0
	for i := 1; i <= steps; i++ {
		if _, err := rawStore.Advance(step); err != nil {
			return nil, err
		}
		if _, err := maintStore.Advance(step); err != nil {
			return nil, err
		}
		before := maintStore.Costs()
		report, err := maintStore.Scrub(blockstore.DefaultScrubPolicy())
		if err != nil {
			return nil, err
		}
		after := maintStore.Costs()
		repairReads += after.ReadsSequenced - before.ReadsSequenced

		uf, err := decodedFrac(rawPart, payload)
		if err != nil {
			return nil, err
		}
		mf, err := decodedFrac(maintPart, payload)
		if err != nil {
			return nil, err
		}
		pt := AgingPoint{
			Days:           float64(i) * step,
			UnattendedFrac: uf,
			MaintainedFrac: mf,
			Flagged:        report.BlocksFlagged,
			Repaired:       report.Repaired,
			Failed:         report.Failed,
			RepairReads:    repairReads,
		}
		r.Points = append(r.Points, pt)
		if uf > prevFrac {
			r.MonotoneDecline = false
		}
		if uf < 1 && r.FirstLossDays == 0 {
			r.FirstLossDays = pt.Days
			r.RecoveredFrac = mf
		}
		prevFrac = uf
	}
	return r, nil
}

// PrintAgingStudy formats the tube-aging study.
func PrintAgingStudy(w io.Writer, r *AgingResult) {
	fmt.Fprintf(w, "Tube aging under accelerated decay (%d blocks, %.0f days in %d steps)\n",
		r.Blocks, r.Days, r.Steps)
	fmt.Fprintf(w, "  %8s %12s %12s %23s %14s\n",
		"days", "unattended", "maintained", "scrub (flag/fix/fail)", "repair reads")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "  %8.1f %11.0f%% %11.0f%% %15d/%d/%d %14d\n",
			pt.Days, pt.UnattendedFrac*100, pt.MaintainedFrac*100,
			pt.Flagged, pt.Repaired, pt.Failed, pt.RepairReads)
	}
	if r.FirstLossDays > 0 {
		fmt.Fprintf(w, "  unattended tube first lost data at day %.1f; scrubbed tube held %.0f%%\n",
			r.FirstLossDays, r.RecoveredFrac*100)
	} else {
		fmt.Fprintf(w, "  no data loss over the horizon in either arm\n")
	}
	if !r.MonotoneDecline {
		fmt.Fprintf(w, "  WARNING: unattended survival was not monotone\n")
	}
}
