package sim

import (
	"fmt"
	"math/rand"
)

// Status is a step function's verdict on what the engine should do with the
// process next. Step functions return it from the helper that established
// it: sp.Sleep / sp.SleepUntil return StepSleeping, Chan.RecvStep's failure
// path pairs with sp.Waiting, and StepDone is returned directly.
type Status int

const (
	// StepDone means the process has finished; its Step is never called
	// again.
	StepDone Status = iota
	// StepSleeping means the process asked (via Sleep or SleepUntil) to be
	// stepped again at a recorded wake time.
	StepSleeping
	// StepWaiting means the process registered itself with a waiting
	// primitive (e.g. Chan.RecvStep) and is stepped again when that
	// primitive wakes it.
	StepWaiting
)

// StepFn is the body of a state-machine process: called by the engine each
// time the process is runnable, it performs one resumption's worth of work
// and returns what to do next. All simulated state lives in the closure (or
// the struct the closure points at); there is no goroutine and no stack.
// Because the engine calls it directly, a panic in a StepFn propagates out
// of Run rather than being captured as a process error the way a goroutine
// Proc's panic is — keeping the per-step cost a bare function call.
type StepFn func(*StepProc) Status

// StepProc is a state-machine process: the zero-goroutine counterpart of
// Proc. Where a Proc is an ordinary Go function that blocks by yielding its
// goroutine to the engine (two context switches per resumption), a StepProc
// is a Step function the engine's event loop calls directly — resuming one
// costs a function call. The trade is explicitness: the process's control
// flow must be written as states the Step function dispatches on, which is
// why the hottest built-in process types (membank's bank accessors) use
// StepProc while user-authored algorithms keep the goroutine API.
//
// Scheduling is identical to Proc's: Sleep(d) consumes the same (time, seq)
// slot Advance(d) would, so a simulation converted between the two forms
// executes events in exactly the same order and produces byte-identical
// results. internal/membank's TestSteppedMatchesGoroutine pins this for the
// bank accessors.
type StepProc struct {
	e    *Engine
	id   int
	name string
	step StepFn
	rng  *rand.Rand
	done bool

	// wakeAt is the pending wake time recorded by Sleep/SleepUntil, read by
	// the engine after the step returns StepSleeping.
	wakeAt Time

	// waitReason names the primitive the process is blocked on ("" while
	// runnable or sleeping); blockedAt is when it began waiting. They feed
	// deadlock reports and the engine's blocked-dwell histogram, same as
	// Proc's fields.
	waitReason string
	blockedAt  Time
}

// SpawnStep creates a state-machine process named name whose Step function
// is fn, first stepped at the current simulated time. It occupies the same
// (time, seq) slot a Spawn at the same point would.
func (e *Engine) SpawnStep(name string, fn StepFn) *StepProc {
	sp := &StepProc{e: e, id: len(e.steps), name: name, step: fn}
	e.steps = append(e.steps, sp)
	e.scheduleStep(e.now, sp)
	return sp
}

// SpawnStepSeeded is SpawnStep with a process-local deterministic random
// source, available through Rand.
func (e *Engine) SpawnStepSeeded(name string, seed int64, fn StepFn) *StepProc {
	sp := e.SpawnStep(name, fn)
	sp.rng = rand.New(rand.NewSource(seed))
	return sp
}

// ID returns the process's spawn index among state-machine processes.
func (sp *StepProc) ID() int { return sp.id }

// Name returns the process's name.
func (sp *StepProc) Name() string { return sp.name }

// Engine returns the engine the process runs on.
func (sp *StepProc) Engine() *Engine { return sp.e }

// Now returns the current simulated time.
func (sp *StepProc) Now() Time { return sp.e.now }

// Rand returns the process-local random source, or nil if the process was
// created with SpawnStep rather than SpawnStepSeeded.
func (sp *StepProc) Rand() *rand.Rand { return sp.rng }

// Done reports whether the process has returned StepDone.
func (sp *StepProc) Done() bool { return sp.done }

// Sleep asks the engine to step the process again d cycles from now. It is
// the state-machine equivalent of Proc.Advance: the step function must
// return its result as the step's final action.
func (sp *StepProc) Sleep(d Time) Status {
	sp.wakeAt = sp.e.now + d
	return StepSleeping
}

// SleepUntil is Sleep with an absolute wake time t >= now.
func (sp *StepProc) SleepUntil(t Time) Status {
	if t < sp.e.now {
		panic(fmt.Sprintf("sim: StepProc %q sleeping into the past (t=%d, now=%d)", sp.name, t, sp.e.now))
	}
	sp.wakeAt = t
	return StepSleeping
}

// Waiting marks the process blocked on the named primitive and returns
// StepWaiting. Waiting primitives with step support (Chan.RecvStep) call it
// internally; a custom primitive that wakes the process through Engine
// scheduling can use it directly.
func (sp *StepProc) Waiting(reason string) Status {
	sp.waitReason = reason
	sp.blockedAt = sp.e.now
	return StepWaiting
}

// runStep executes one step of sp from the engine's event loop: exactly the
// control transfer runProc performs for a goroutine process, minus the two
// context switches.
func (e *Engine) runStep(sp *StepProc) {
	if sp.done {
		return
	}
	if sp.waitReason != "" {
		e.obsDwell.Observe(float64(e.now - sp.blockedAt))
		sp.waitReason = ""
	}
	switch sp.step(sp) {
	case StepDone:
		sp.done = true
	case StepSleeping:
		// Scheduling after the step body ran mirrors Advance consuming its
		// event seq after everything the process did earlier in the slot.
		e.scheduleStep(sp.wakeAt, sp)
	case StepWaiting:
		// Registered with a primitive; it will wake the process.
	}
}
