package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestRunExecutes(t *testing.T) {
	p := New(4)
	defer p.Close()
	ran := false
	p.Run(func(w *Worker) { ran = true })
	if !ran {
		t.Fatal("Run did not execute the task")
	}
}

func TestSpawnWaitCompletesAll(t *testing.T) {
	p := New(4)
	defer p.Close()
	var count atomic.Int64
	p.Run(func(w *Worker) {
		var g Group
		for i := 0; i < 1000; i++ {
			w.Spawn(&g, func(inner *Worker) { count.Add(1) })
		}
		w.Wait(&g)
	})
	if count.Load() != 1000 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestNestedSpawns(t *testing.T) {
	p := New(4)
	defer p.Close()
	var count atomic.Int64
	// Fibonacci-style recursive fork-join.
	var fib func(w *Worker, n int) int
	fib = func(w *Worker, n int) int {
		count.Add(1)
		if n < 2 {
			return n
		}
		var g Group
		var left int
		w.Spawn(&g, func(inner *Worker) { left = fib(inner, n-1) })
		right := fib(w, n-2)
		w.Wait(&g)
		return left + right
	}
	var result int
	p.Run(func(w *Worker) { result = fib(w, 15) })
	if result != 610 {
		t.Fatalf("fib(15) = %d, want 610", result)
	}
	if count.Load() == 0 {
		t.Fatal("no recursive calls counted")
	}
}

func TestParallelRangeCoversAllIndices(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, grain := range []int{0, 1, 16, 1000} {
			marks := make([]atomic.Int32, max(n, 1))
			p.ParallelRange(n, grain, func(w *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					marks[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if got := marks[i].Load(); got != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, got)
				}
			}
		}
	}
}

func TestParallelRangeGrainBoundsChunks(t *testing.T) {
	p := New(2)
	defer p.Close()
	const n, grain = 1000, 32
	var maxChunk atomic.Int64
	p.ParallelRange(n, grain, func(w *Worker, lo, hi int) {
		c := int64(hi - lo)
		for {
			old := maxChunk.Load()
			if c <= old || maxChunk.CompareAndSwap(old, c) {
				break
			}
		}
	})
	if maxChunk.Load() > grain {
		t.Fatalf("chunk of %d exceeds grain %d", maxChunk.Load(), grain)
	}
}

func TestStaticRangeCoversAllIndices(t *testing.T) {
	p := New(3)
	defer p.Close()
	const n = 500
	marks := make([]atomic.Int32, n)
	p.StaticRange(n, func(w *Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			marks[i].Add(1)
		}
	})
	for i := range marks {
		if marks[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, marks[i].Load())
		}
	}
}

func TestStealsHappenUnderImbalance(t *testing.T) {
	p := New(4)
	defer p.Close()
	// Spawn many tasks from one worker: with 4 workers, some must steal.
	var count atomic.Int64
	p.Run(func(w *Worker) {
		var g Group
		for i := 0; i < 5000; i++ {
			w.Spawn(&g, func(inner *Worker) {
				// A little work so thieves have time to engage.
				s := 0
				for k := 0; k < 100; k++ {
					s += k
				}
				if s < 0 {
					t.Error("impossible")
				}
				count.Add(1)
			})
		}
		w.Wait(&g)
	})
	if count.Load() != 5000 {
		t.Fatalf("count = %d", count.Load())
	}
	if p.Steals() == 0 {
		t.Error("no steals occurred despite imbalance")
	}
	loads := p.WorkerLoads()
	total := int64(0)
	for _, l := range loads {
		total += l
	}
	if total < 5000 {
		t.Errorf("worker loads sum to %d", total)
	}
}

func TestPoolMinimumOneWorker(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.NumWorkers() != 1 {
		t.Fatalf("workers = %d", p.NumWorkers())
	}
	done := false
	p.Run(func(w *Worker) { done = true })
	if !done {
		t.Fatal("single-worker pool did not run task")
	}
}

func TestSequentialRunsReusePool(t *testing.T) {
	p := New(2)
	defer p.Close()
	for round := 0; round < 10; round++ {
		var sum atomic.Int64
		p.ParallelRange(100, 10, func(w *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		})
		if sum.Load() != 4950 {
			t.Fatalf("round %d: sum = %d", round, sum.Load())
		}
	}
}

// Property: ParallelRange computes the same reduction as a serial loop for
// arbitrary sizes.
func TestParallelRangeEquivalentToSerial(t *testing.T) {
	p := New(4)
	defer p.Close()
	f := func(n uint16, grain uint8) bool {
		size := int(n % 2000)
		var sum atomic.Int64
		p.ParallelRange(size, int(grain), func(w *Worker, lo, hi int) {
			local := int64(0)
			for i := lo; i < hi; i++ {
				local += int64(i * i)
			}
			sum.Add(local)
		})
		want := int64(0)
		for i := 0; i < size; i++ {
			want += int64(i * i)
		}
		return sum.Load() == want
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDequeOrdering(t *testing.T) {
	var d deque
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		d.pushBottom(func(*Worker) { order = append(order, i) })
	}
	// Owner pops LIFO.
	d.popBottom()(nil)
	// Thief steals FIFO (oldest).
	d.stealTop()(nil)
	d.popBottom()(nil)
	if order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("order = %v, want [2 0 1]", order)
	}
	if d.popBottom() != nil || d.stealTop() != nil {
		t.Fatal("empty deque returned a task")
	}
	if d.size() != 0 {
		t.Fatalf("size = %d", d.size())
	}
}

func TestWorkerAccessors(t *testing.T) {
	p := New(3)
	defer p.Close()
	var id int
	var owner *Pool
	p.Run(func(w *Worker) {
		id = w.ID()
		owner = w.Pool()
	})
	if id < 0 || id >= 3 {
		t.Errorf("worker ID = %d", id)
	}
	if owner != p {
		t.Error("Pool() did not return the owning pool")
	}
	if p.TasksSpawned() < 0 {
		t.Error("TasksSpawned negative")
	}
	var g Group
	p.Run(func(w *Worker) {
		w.Spawn(&g, func(*Worker) {})
		w.Wait(&g)
	})
	if p.TasksSpawned() == 0 {
		t.Error("TasksSpawned did not count")
	}
}

// TestFreshPoolRunNeverHangs runs one task on many freshly started pools,
// whose workers are still on their way to parking when Run pushes the
// task: a worker that found no work and parks without re-checking misses
// that push, and Run waits forever. Under the race detector, which widens
// the gap, the unchecked park hung within a few thousand pools.
func TestFreshPoolRunNeverHangs(t *testing.T) {
	for i := 0; i < 20000; i++ {
		p := New(1 + i%2)
		done := make(chan struct{})
		go func() {
			p.ParallelRange(4, 1, func(w *Worker, lo, hi int) {})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("pool %d (%d workers): Run never returned", i, p.NumWorkers())
		}
		p.Close()
	}
}
