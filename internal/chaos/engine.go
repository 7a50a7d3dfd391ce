package chaos

import (
	"context"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// Engine replays a list of timed events against a running session: one
// tracked task parks on the virtual clock until each event's At and hands
// it to the caller's apply function. Events are applied strictly in time
// order (stable for ties) by that single task, so the injection schedule
// is deterministic. Membership events in a multi-node run are not driven
// by an Engine — the step barrier applies them at quiescent points; see
// the package comment.
type Engine struct {
	mu      sync.Mutex
	stopped bool
	cancel  context.CancelFunc
}

// StartEngine launches the replay task on wg (no-op returning nil when
// events is empty). apply runs in the engine's task at each event time;
// after Stop it is never called again.
func StartEngine(rt *simtime.Virtual, wg *simtime.WaitGroup, events []Event, apply func(Event)) *Engine {
	if len(events) == 0 {
		return nil
	}
	ctx, cancel := simtime.WithCancel(rt, context.Background())
	e := &Engine{cancel: cancel}
	wg.Go("chaos-engine", func() {
		for _, ev := range events {
			if d := ev.At - rt.Now(); d > 0 {
				if err := rt.Sleep(ctx, d); err != nil {
					return
				}
			}
			e.mu.Lock()
			dead := e.stopped
			if !dead {
				apply(ev)
			}
			e.mu.Unlock()
			if dead {
				return
			}
		}
	})
	return e
}

// Stop ends the replay: pending events are discarded and apply is never
// invoked again. Safe on a nil engine and idempotent. Callers stop the
// engine when the run's consumers finish, before waiting out background
// tasks, so a script outliving the run cannot append trailing fault
// records.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
	e.cancel()
}

// Pauser gates training consumers for session preemption: consumers call
// Wait at each batch boundary and park while the session is preempted.
// Pause with terminal=true (no resume scheduled in the script) releases
// waiters with ErrPreempted instead of parking them forever.
type Pauser struct {
	rt *simtime.Virtual

	mu       sync.Mutex
	paused   bool
	terminal bool
	waiters  []*simtime.Waiter
}

// NewPauser returns an unpaused gate.
func NewPauser(rt *simtime.Virtual) *Pauser {
	return &Pauser{rt: rt}
}

// Pause preempts the session; terminal marks a preemption with no
// scheduled resume. Parked waiters of a terminal pause wake immediately
// with ErrPreempted.
func (p *Pauser) Pause(terminal bool) {
	p.mu.Lock()
	p.paused, p.terminal = true, terminal
	var ws []*simtime.Waiter
	if terminal {
		ws = p.waiters
		p.waiters = nil
	}
	p.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// Resume releases every parked consumer.
func (p *Pauser) Resume() {
	p.mu.Lock()
	p.paused, p.terminal = false, false
	ws := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// Wait parks until the session is not preempted and returns the time
// spent parked. A terminal preemption returns ErrPreempted (with the
// stall accumulated so far); a ctx error passes through. Safe on a nil
// pauser, which never pauses.
func (p *Pauser) Wait(ctx context.Context) (time.Duration, error) {
	if p == nil {
		return 0, nil
	}
	var stalled time.Duration
	for {
		p.mu.Lock()
		if !p.paused {
			p.mu.Unlock()
			return stalled, nil
		}
		if p.terminal {
			p.mu.Unlock()
			return stalled, ErrPreempted
		}
		w := p.rt.NewWaiter()
		p.waiters = append(p.waiters, w)
		p.mu.Unlock()
		t0 := p.rt.Now()
		err := w.Wait(ctx)
		stalled += p.rt.Now() - t0
		if err != nil {
			return stalled, err
		}
	}
}
