package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/netlist"
	"repro/internal/sta"
)

// A Pipeline is the Evaluator's one evaluation pool, which every
// optimizer's generation runs on. Its caller, one goroutine, queues each
// candidate as soon as it exists — a complete circuit, a searching
// action's clone with its draws, or a greedy round's target — and worker
// goroutines complete and evaluate it while the caller goes on drawing.
// Of its EvalWorkers arenas, all but the last go to worker goroutines;
// the caller is the last worker: it runs each task at once when there is
// no worker goroutine, and drains the queue alongside the workers at the
// barrier (Wait).
type Pipeline struct {
	e      *Evaluator
	arenas []*arena // the last one is the caller's
	tasks  chan Task
	out    []*Individual // out[i] is task i's result
	n      int           // tasks queued
	done   bool
	wg     sync.WaitGroup
	failed atomic.Bool
	err    error // the first failure, written by its CAS winner
}

// Task is one queued candidate: the circuit C, which the Evaluator's
// search for Targets (tie-broken by Rep; see Search) completes first when
// there are any; a search needs C in the accurate circuit's gate ID
// space. The pipeline numbers tasks itself, and a greedy round's tasks
// carry the round's edit instead (see EvaluateRound).
type Task struct {
	C       *netlist.Circuit
	Rep     *sta.Report
	Targets []int

	i     int
	round *round
}

// StartPipeline starts a pipeline for at most capacity tasks, which the
// queue holds, so Submit never blocks. The caller ends it with Wait, or
// Finish on error paths; either stops the workers and returns the arenas.
func (e *Evaluator) StartPipeline(capacity int) (*Pipeline, error) {
	workers := e.maxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, capacity))
	p := &Pipeline{e: e, tasks: make(chan Task, capacity), out: make([]*Individual, capacity)}
	// Pooled arenas, never e.serial, so a Simulate result outlives a batch.
	e.poolMu.Lock()
	k := max(0, len(e.pool)-workers)
	p.arenas = append(p.arenas, e.pool[k:]...)
	e.pool = e.pool[:k]
	e.poolMu.Unlock()
	for len(p.arenas) < workers {
		a, err := e.newArena()
		if err != nil {
			p.Finish()
			return nil, err
		}
		p.arenas = append(p.arenas, a)
	}
	for _, a := range p.arenas[:workers-1] {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				p.run(a, t)
			}
		}()
	}
	return p, nil
}

// Submit queues one candidate; it numbers t in submission order.
func (p *Pipeline) Submit(t Task) {
	t.i = p.n
	p.n++
	if len(p.arenas) == 1 {
		p.run(p.arenas[0], t)
	} else {
		p.tasks <- t
	}
}

// run completes and evaluates one task in arena a, unless a task failed.
func (p *Pipeline) run(a *arena, t Task) {
	if p.failed.Load() {
		return
	}
	var err error
	if t.round != nil {
		p.out[t.i], err = p.e.evaluateEdit(a, t.round, t.i)
	} else if err = p.e.search(a, t.C, t.Rep, t.Targets); err == nil {
		p.out[t.i], err = p.e.evaluateWith(a, t.C)
	}
	if err != nil && p.failed.CompareAndSwap(false, true) {
		p.err = err
	}
}

// Wait is the barrier: it returns the Individuals in submission order, or
// the first error, and counts one evaluation per Individual. A round's
// target without a change has a nil one, which is no evaluation.
func (p *Pipeline) Wait() ([]*Individual, error) {
	p.Finish()
	if p.err != nil {
		return nil, p.err
	}
	for _, ind := range p.out[:p.n] {
		if ind != nil {
			p.e.count++
		}
	}
	return p.out[:p.n], nil
}

// Finish closes the queue, drains it alongside the workers, waits for
// them and returns every arena to the pool. Later calls do nothing.
func (p *Pipeline) Finish() {
	if p.done {
		return
	}
	p.done = true
	close(p.tasks)
	for t := range p.tasks {
		p.run(p.arenas[len(p.arenas)-1], t)
	}
	p.wg.Wait()
	p.e.poolMu.Lock()
	p.e.pool = append(p.e.pool, p.arenas...)
	p.e.poolMu.Unlock()
}
