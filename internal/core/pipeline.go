package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/netlist"
)

// A pipeline is the Evaluator's one evaluation pool. Its caller queues
// each candidate as soon as it exists — a complete circuit, a searching
// action's clone with its plan, or a greedy round's target — and worker
// goroutines complete and evaluate it while the caller goes on. Of its
// EvalWorkers arenas, all but the last go to worker goroutines; the
// caller is the last worker: it runs each task at once when there is no
// worker goroutine, and drains the queue alongside the workers at the
// barrier (wait).
type pipeline struct {
	e      *Evaluator
	arenas []*arena // the last one is the caller's
	tasks  chan task
	out    []*Individual // out[i] is task i's result
	n      int           // tasks queued
	done   bool
	wg     sync.WaitGroup
	failed atomic.Bool
	err    error // the first failure, written by its CAS winner
}

// task is one queued candidate: c, which a non-nil plan completes first,
// or, with a non-nil round, the round's edit i (see EvaluateRound).
type task struct {
	i     int
	c     *netlist.Circuit
	plan  *searchPlan
	round *round
}

// startPipeline starts a pipeline for at most capacity tasks, which the
// queue holds, so submit never blocks. The caller ends it with wait, or
// finish on error paths; either stops the workers and returns the arenas.
func (e *Evaluator) startPipeline(capacity int) (*pipeline, error) {
	workers := e.maxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, capacity))
	p := &pipeline{e: e, tasks: make(chan task, capacity), out: make([]*Individual, capacity)}
	// Pooled arenas, never e.serial, so a Simulate result outlives a batch.
	e.poolMu.Lock()
	k := max(0, len(e.pool)-workers)
	p.arenas = append(p.arenas, e.pool[k:]...)
	e.pool = e.pool[:k]
	e.poolMu.Unlock()
	for len(p.arenas) < workers {
		a, err := e.newArena()
		if err != nil {
			p.finish()
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

// submit queues one candidate; it numbers t in submission order.
func (p *pipeline) submit(t task) {
	t.i = p.n
	p.n++
	if len(p.arenas) == 1 {
		p.run(p.arenas[0], t)
	} else {
		p.tasks <- t
	}
}

// run completes and evaluates one task in arena a, unless a task failed.
func (p *pipeline) run(a *arena, t task) {
	if p.failed.Load() {
		return
	}
	var err error
	if t.plan != nil {
		err = t.plan.complete(a.sim, t.c)
	}
	if t.round != nil {
		p.out[t.i], err = p.e.evaluateEdit(a, t.round, t.i)
	} else if err == nil {
		p.out[t.i], err = p.e.evaluateWith(a, t.c)
	}
	if err != nil && p.failed.CompareAndSwap(false, true) {
		p.err = err
	}
}

// wait is the barrier: it returns the Individuals in submission order, or
// the first error. A round's target without a change has a nil one, which
// is no evaluation.
func (p *pipeline) wait() ([]*Individual, error) {
	p.finish()
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

// finish closes the queue, drains it alongside the workers, waits for
// them and returns every arena to the pool. Later calls do nothing.
func (p *pipeline) finish() {
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
