package pipeline

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tero/internal/download"
	"tero/internal/obs"
)

// drainCheck returns a Drive hook (driveWorld runs it) that holds a run to
// Drive's schedule: after every tick the thumbnail bucket holds exactly what
// p's downloaders stored since the previous drain.
func drainCheck(t *testing.T, p *Pipeline) func(i int) error {
	since := map[string]bool{}
	return func(i int) error {
		for _, d := range p.Downloaders {
			for _, key := range d.Stored() { // stored on tick i
				since[key] = true
			}
		}
		if i%DrainEvery == 0 {
			clear(since) // drained after tick i
		}
		keys, stored := p.Objects.List(download.ThumbBucket, ""), 0
		for _, key := range keys {
			if since[key] {
				stored++
			}
		}
		if stored != len(keys) || stored != len(since) {
			t.Fatalf("tick %d: the bucket holds %d thumbnails, %d of the %d stored since the last drain", i, len(keys), stored, len(since))
		}
		return nil
	}
}

// checkDrained fails unless the Drive that just returned left nothing of p
// behind: no thumbnail (§7), no extraction ahead, no extraction goroutine
// (one closes its result just before it exits: the last get a moment).
func checkDrained(t *testing.T, p *Pipeline) {
	t.Helper()
	if n := p.Objects.Size(download.ThumbBucket); n != 0 || len(p.ahead) != 0 {
		t.Fatalf("Drive left %d thumbnails and %d extractions behind", n, len(p.ahead))
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := fmt.Sprint(liveGoroutines())
		if !strings.Contains(stacks, "(*Pipeline).extractAhead") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("extraction goroutines outlive Drive:\n%s", stacks)
		}
	}
}

// virtualClock is a Clock on its own.
type virtualClock struct{ time.Time }

func (c *virtualClock) Now() time.Time          { return c.Time }
func (c *virtualClock) Advance(d time.Duration) { c.Time = c.Add(d) }

// failAt is a Fleet whose Tick fails from the tick it holds on.
type failAt int

var errFleet, errHook = errors.New("fleet lost"), errors.New("hook failed")

func (f failAt) Tick(_ time.Time, tick int, _ bool) error {
	if tick >= int(f) {
		return errFleet
	}
	return nil
}

// TestDriveErrorPolicy pins Drive's one error policy: a degraded pipeline
// tick is counted and returned after a run that went to its end, while a
// fleet error or a hook error stops the run before the clock moves on.
func TestDriveErrorPolicy(t *testing.T) {
	defer obs.SetLogLevel(obs.SetLogLevel(obs.LevelError)) // each failed poll is logged at warn
	api := httptest.NewServer(http.NotFoundHandler())      // so every coordinator poll fails
	defer api.Close()
	run := func(fleet Fleet, hookErrAt int) (ticks int, err error) {
		clock := &virtualClock{}
		err = Drive(clock, New(api.URL, 1), fleet, 7, TickEvery, func(i int) error {
			if i == hookErrAt {
				return errHook
			}
			return nil
		})
		return int(clock.Sub(time.Time{}) / TickEvery), err
	}
	var degraded Degraded
	if ticks, err := run(nil, -1); !errors.As(err, &degraded) || len(degraded) != 3 ||
		!strings.HasPrefix(degraded[1].Error(), "tick 3 degraded: ") || ticks != 7 {
		t.Errorf("polls failing on ticks 0, 3 and 6: %v after %d ticks, want them after all 7", err, ticks)
	}
	if ticks, err := run(failAt(2), -1); !errors.Is(err, errFleet) || ticks != 2 {
		t.Errorf("fleet failing on tick 2: %v after %d ticks, want it after 2", err, ticks)
	}
	if ticks, err := run(failAt(99), 4); !errors.Is(err, errHook) || ticks != 4 {
		t.Errorf("hook failing after tick 4: %v after %d ticks, want it after 4", err, ticks)
	}
}
