// Package sched implements a Cilk-style randomized work-stealing task
// scheduler (Blumofe & Leiserson), the shared-memory parallel substrate of
// the paper's OCT_CILK and OCT_MPI+CILK programs. Each worker owns a
// double-ended queue: newly spawned tasks are pushed to the bottom and
// popped from the bottom by the owner (depth-first, cache-friendly), while
// idle workers steal from the top of a random victim's deque (oldest,
// largest-granularity work — the property the paper credits for low
// inter-thread communication).
package sched

import "sync"

// Task is a unit of work executed on some worker.
type Task func(w *Worker)

// deque is a mutex-protected double-ended work queue. The mutex version is
// deliberately chosen over a lock-free Chase-Lev deque: the contention
// profile of fork-join tree traversals is owner-dominated, and the mutex
// cost is invisible next to the numeric kernels while being trivially
// correct under the race detector.
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

// pushBottom adds a task at the owner end.
func (d *deque) pushBottom(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

// popBottom removes the most recently pushed task (owner end). It returns
// nil when the deque is empty.
func (d *deque) popBottom() Task {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	d.mu.Unlock()
	return t
}

// stealTop removes the oldest task (thief end). It returns nil when the
// deque is empty.
func (d *deque) stealTop() Task {
	d.mu.Lock()
	if len(d.tasks) == 0 {
		d.mu.Unlock()
		return nil
	}
	t := d.tasks[0]
	copy(d.tasks, d.tasks[1:])
	d.tasks[len(d.tasks)-1] = nil
	d.tasks = d.tasks[:len(d.tasks)-1]
	d.mu.Unlock()
	return t
}

// size returns the current task count.
func (d *deque) size() int {
	d.mu.Lock()
	n := len(d.tasks)
	d.mu.Unlock()
	return n
}
