package simmpi

import (
	"math"
	"sync/atomic"
	"testing"
)

// must unwraps a collective result inside rank functions: the happy-path
// tests treat any communication error as fatal. Curried so call sites can
// forward a (data, err) pair directly: must(t)(c.Allreduce(...)).
func must(t *testing.T) func(data []float64, err error) []float64 {
	return func(data []float64, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatalf("collective failed: %v", err)
		}
		return data
	}
}

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int64
	stats, err := Run(8, func(c *Comm) error {
		count.Add(1)
		if c.Size() != 8 {
			t.Errorf("Size = %d", c.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("ranks run = %d", count.Load())
	}
	if stats.P2PMessages != 0 {
		t.Errorf("unexpected p2p traffic: %+v", stats)
	}
}

func TestRunInvalidSize(t *testing.T) {
	if _, err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestRunCapturesPanic(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestRunPropagatesError(t *testing.T) {
	want := "rank 2 gave up"
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return errInjected(want)
		}
		return nil
	})
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

type errInjected string

func (e errInjected) Error() string { return string(e) }

func TestSendRecv(t *testing.T) {
	stats, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, []float64{1, 2, 3})
		}
		got, err := c.Recv(0)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("Recv = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.P2PMessages != 1 || stats.P2PBytes != 24 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSendCopiesData(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			if err := c.Send(1, buf); err != nil {
				return err
			}
			buf[0] = 0 // mutation after send must not affect the receiver
			return nil
		}
		got, err := c.Recv(0)
		if err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("Recv = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	const P = 16
	var phase atomic.Int64
	_, err := Run(P, func(c *Comm) error {
		phase.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		// After the barrier every rank must observe all P arrivals.
		if got := phase.Load(); got != P {
			t.Errorf("rank %d saw phase %d", c.Rank(), got)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	const P = 7
	stats, err := Run(P, func(c *Comm) error {
		data := []float64{float64(c.Rank()), 1}
		got := must(t)(c.Allreduce(data, Sum))
		wantFirst := float64(P * (P - 1) / 2)
		if got[0] != wantFirst || got[1] != P {
			t.Errorf("rank %d: Allreduce = %v", c.Rank(), got)
		}
		// Input must be unmodified.
		if data[0] != float64(c.Rank()) {
			t.Error("Allreduce modified input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := stats.Collectives[KindAllreduce]; s.Calls != 1 || s.Bytes != 16 {
		t.Errorf("allreduce stats = %+v", s)
	}
}

func TestAllreduceMinMax(t *testing.T) {
	_, err := Run(5, func(c *Comm) error {
		v := []float64{float64(c.Rank())}
		if got := must(t)(c.Allreduce(v, Min)); got[0] != 0 {
			t.Errorf("Min = %v", got)
		}
		if got := must(t)(c.Allreduce(v, Max)); got[0] != 4 {
			t.Errorf("Max = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceDeterministicOrder(t *testing.T) {
	// Floating-point sums depend on order; the rank-ordered reduction must
	// give bit-identical results on every rank and across repeats.
	vals := []float64{1e-17, 1.0, -1e17, 1e17, 3.14}
	var first atomic.Value
	for trial := 0; trial < 3; trial++ {
		_, err := Run(5, func(c *Comm) error {
			got := must(t)(c.Allreduce([]float64{vals[c.Rank()]}, Sum))
			if prev := first.Load(); prev == nil {
				first.Store(got[0])
			} else if prev.(float64) != got[0] {
				t.Errorf("non-deterministic allreduce: %v vs %v", prev, got[0])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceLengthMismatchError(t *testing.T) {
	// Satellite: a shape mismatch must surface as an error on every rank
	// (and through Run) instead of panicking the process.
	var sawErr atomic.Int64
	_, err := Run(3, func(c *Comm) error {
		data := []float64{1}
		if c.Rank() == 2 {
			data = []float64{1, 2}
		}
		_, err := c.Allreduce(data, Sum)
		if err != nil {
			sawErr.Add(1)
		}
		return err
	})
	if err == nil {
		t.Fatal("length mismatch not reported by Run")
	}
	if sawErr.Load() != 3 {
		t.Errorf("%d of 3 ranks observed the mismatch", sawErr.Load())
	}
}

func TestAllgatherv(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		// Rank r contributes r+1 copies of float64(r).
		data := make([]float64, c.Rank()+1)
		for i := range data {
			data[i] = float64(c.Rank())
		}
		got := must(t)(c.Allgatherv(data))
		if len(got) != 1+2+3+4 {
			t.Fatalf("rank %d: len = %d", c.Rank(), len(got))
		}
		idx := 0
		for r := 0; r < 4; r++ {
			for i := 0; i <= r; i++ {
				if got[idx] != float64(r) {
					t.Fatalf("rank %d: got[%d] = %v, want %d", c.Rank(), idx, got[idx], r)
				}
				idx++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// Many back-to-back collectives exercise barrier generation reuse.
	_, err := Run(5, func(c *Comm) error {
		acc := 0.0
		for i := 0; i < 50; i++ {
			got := must(t)(c.Allreduce([]float64{1}, Sum))
			acc += got[0]
		}
		if acc != 250 {
			t.Errorf("rank %d: acc = %v", c.Rank(), acc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankWorld(t *testing.T) {
	_, err := Run(1, func(c *Comm) error {
		if got := must(t)(c.Allreduce([]float64{5}, Sum)); got[0] != 5 {
			t.Errorf("Allreduce = %v", got)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := must(t)(c.Allgatherv([]float64{1, 2})); len(got) != 2 {
			t.Errorf("Allgatherv = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeWorld(t *testing.T) {
	// 144 ranks — the paper's 12 nodes × 12 cores configuration.
	const P = 144
	_, err := Run(P, func(c *Comm) error {
		got := must(t)(c.Allreduce([]float64{1}, Sum))
		if got[0] != P {
			t.Errorf("rank %d: %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpApply(t *testing.T) {
	dst := []float64{1, 5, -2}
	Sum.apply(dst, []float64{1, 1, 1})
	if dst[0] != 2 || dst[1] != 6 || dst[2] != -1 {
		t.Errorf("Sum = %v", dst)
	}
	Min.apply(dst, []float64{0, 10, math.Inf(-1)})
	if dst[0] != 0 || dst[1] != 6 || !math.IsInf(dst[2], -1) {
		t.Errorf("Min = %v", dst)
	}
	Max.apply(dst, []float64{100, -1, 0})
	if dst[0] != 100 || dst[1] != 6 || dst[2] != 0 {
		t.Errorf("Max = %v", dst)
	}
}

func TestTryRecv(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Phase 1: nothing can have been sent before the first
			// barrier — TryRecv must report empty without blocking.
			if _, ok := c.TryRecv(1); ok {
				t.Error("TryRecv returned a phantom message")
			}
			if err := c.Barrier(); err != nil { // rank 1 sends after this
				return err
			}
			if err := c.Barrier(); err != nil { // send completed before this
				return err
			}
			m, ok := c.TryRecv(1)
			if !ok || len(m) != 1 || m[0] != 42 {
				t.Errorf("TryRecv = %v, %v", m, ok)
			}
			// Mailbox drained again.
			if _, ok := c.TryRecv(1); ok {
				t.Error("TryRecv returned a second phantom")
			}
			return nil
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := c.Send(0, []float64{42}); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherTotalBytesRecorded(t *testing.T) {
	stats, err := Run(3, func(c *Comm) error {
		must(t)(c.Allgatherv(make([]float64, c.Rank()+1))) // 1+2+3 = 6 floats
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Collectives[KindAllgatherv].Bytes; got != 6*8 {
		t.Errorf("allgatherv bytes = %d, want 48 (total gathered vector)", got)
	}
}

// --- satellite edge cases -------------------------------------------------

func TestBarrierUnderPanickingRank(t *testing.T) {
	// A rank that panics must not deadlock peers blocked in Barrier: the
	// world aborts and the barrier returns the causal error.
	var released atomic.Int64
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 3 {
			panic("rank 3 exploded")
		}
		err := c.Barrier()
		if err != nil {
			released.Add(1)
		}
		return err
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
	// Note: ranks 0-2 may have been released normally if rank 3's retire
	// happened after they all arrived — either way nobody deadlocked, which
	// is the property under test (the test completing at all proves it).
	_ = released.Load()
}

func TestBarrierUnderErroringRank(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return errInjected("early failure")
		}
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("error not reported")
	}
}

func TestZeroLengthPayloads(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		if got := must(t)(c.Allgatherv(nil)); len(got) != 0 {
			t.Errorf("Allgatherv(nil) = %v", got)
		}
		if got := must(t)(c.Allreduce([]float64{}, Sum)); len(got) != 0 {
			t.Errorf("Allreduce(empty) = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if err := c.Send(5, []float64{1}); err == nil {
			t.Error("Send to out-of-range rank accepted")
		}
		if _, err := c.Recv(-1); err == nil {
			t.Error("Recv from out-of-range rank accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHealthAllAlive(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		h := c.Health()
		if len(h.Live) != 3 || len(h.Lost) != 0 || len(h.Straggling) != 0 {
			t.Errorf("Health = %+v", h)
		}
		if !c.Alive(2) || c.Alive(7) {
			t.Error("Alive misreports")
		}
		// Hold every rank until all have sampled: a rank returning early
		// retires and would legitimately shrink the others' live view.
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEarlyReturnDoesNotDeadlockBarrier(t *testing.T) {
	// A rank returning nil early (normal completion) must not wedge peers
	// in a barrier: the live count shrinks and the barrier releases.
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return nil // leaves before the barrier
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
