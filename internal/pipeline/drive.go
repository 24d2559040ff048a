package pipeline

import (
	"fmt"
	"time"
)

// TickEvery is App. A's tick: the downloaders poll every two virtual minutes.
const TickEvery = 2 * time.Minute

// DrainEvery is how often, in ticks, Drive drains the thumbnail bucket: 30
// virtual minutes, the benchmark's refresh cadence. The paper's
// image-processing module consumes thumbnails as they land (App. B, §7); a
// bucket left to hold hours of them is where a long run's heap goes, and a
// drain every tick costs GC pacing (DESIGN §6).
const DrainEvery = 15

// Clock is the virtual clock a run is driven on; *twitchsim.Platform is one.
type Clock interface {
	Now() time.Time
	Advance(d time.Duration)
}

// Fleet is a topology whose workers fetch and extract and whose results
// merge into the pipeline every tick, so Drive never drains behind it: a
// *dist.Coordinator.
type Fleet interface {
	Tick(now time.Time, tick int, pollCoordinator bool) error
}

// Degraded is what Drive returns after a run whose degraded ticks it went
// on through (Tick's contract: each is a warning), one error per tick.
type Degraded []error

func (d Degraded) Error() string {
	return fmt.Sprintf("%d degraded ticks, the first: %v", len(d), d[0])
}

// Drive runs App. A's schedule on p: ticks ticks of length every from the
// platform's current instant, each a poll of the download module — the
// coordinator on every third — by p's own downloaders, or by fleet if it is
// not nil. Behind p's own downloaders Drive drains the thumbnail bucket
// (ProcessThumbnails) after ticks 0, DrainEvery, 2·DrainEvery, … and at the
// end. After tick i and its drain, before the clock advances, it calls
// onTick(i) if that is not nil. Last, it locates the streamers, advancing
// the clock by every and locating again while the API quota refuses a lookup.
//
// An error from fleet or onTick stops the run and is returned. A degraded
// Tick of p does not: Drive returns a Degraded after the run. So a caller
// that injects no faults fails on any non-nil result.
func Drive(platform Clock, p *Pipeline, fleet Fleet, ticks int, every time.Duration, onTick func(i int) error) error {
	var degraded Degraded
	for i := 0; i < ticks; i++ {
		if fleet != nil {
			if err := fleet.Tick(platform.Now(), i, i%3 == 0); err != nil {
				return fmt.Errorf("tick %d: %w", i, err)
			}
		} else {
			if err := p.Tick(platform.Now(), i%3 == 0); err != nil {
				degraded = append(degraded, fmt.Errorf("tick %d degraded: %w", i, err))
			}
			if i%DrainEvery == 0 {
				p.ProcessThumbnails()
			}
		}
		if onTick != nil {
			if err := onTick(i); err != nil {
				return err
			}
		}
		platform.Advance(every)
	}
	if fleet == nil {
		p.ProcessThumbnails()
	}
	_, refused := p.LocateStreamers(platform.Now())
	for ; refused; _, refused = p.LocateStreamers(platform.Now()) {
		platform.Advance(every)
	}
	if degraded != nil {
		return degraded
	}
	return nil
}
