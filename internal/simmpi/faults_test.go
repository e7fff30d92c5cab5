package simmpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gbpolar/internal/fault"
)

func TestRunPlanEmptyPlanMatchesRun(t *testing.T) {
	stats, err := RunPlan(3, &fault.Plan{}, func(c *Comm) error {
		_, err := c.Allreduce([]float64{1}, Sum)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.LostRanks) != 0 || stats.StragglerNanos != 0 || stats.Corruptions != 0 {
		t.Errorf("empty plan produced fault traffic: %+v", stats)
	}
}

func TestInjectedCrashSurvivorsComplete(t *testing.T) {
	// Rank 1 dies at its first op; the survivors' collectives must release
	// and combine only live contributions, and Run must report the loss in
	// stats — not as an error (recovery policy belongs to the caller).
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 0}}}
	var sum atomic.Value
	stats, err := RunPlan(4, plan, func(c *Comm) error {
		got, err := c.Allreduce([]float64{float64(c.Rank() + 1)}, Sum)
		if err != nil {
			return err
		}
		sum.Store(got[0])
		if err := c.Barrier(); err != nil {
			return err
		}
		lost := c.Lost()
		if len(lost) != 1 || lost[0] != 1 {
			t.Errorf("rank %d: Lost = %v", c.Rank(), lost)
		}
		if c.Alive(1) {
			t.Error("rank 1 reported alive after crash")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.LostRanks) != 1 || stats.LostRanks[0] != 1 {
		t.Errorf("LostRanks = %v", stats.LostRanks)
	}
	// 1 + 3 + 4 (rank 1's +2 is missing).
	if got := sum.Load().(float64); got != 8 {
		t.Errorf("survivor Allreduce = %v, want 8", got)
	}
}

func TestRecvFromCrashedRank(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 0}}}
	_, err := RunPlan(2, plan, func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Barrier() // crashes at the fault point before waiting
		}
		_, err := c.Recv(1)
		var lost *RankLostError
		if !errors.As(err, &lost) || lost.Ranks[0] != 1 {
			t.Errorf("Recv err = %v, want RankLostError{1}", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToCrashedRank(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 0}}}
	_, err := RunPlan(2, plan, func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Barrier()
		}
		// Wait for the crash to land, then observe it on Send.
		for c.Alive(1) {
			time.Sleep(50 * time.Microsecond)
		}
		err := c.Send(1, []float64{1})
		var lost *RankLostError
		if !errors.As(err, &lost) {
			t.Errorf("Send err = %v, want RankLostError", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInjectedDelayAndStraggleRecorded(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 1, AtOp: 0, Count: 2, Dur: 5 * time.Millisecond},
	}}
	stats, err := RunPlan(2, plan, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, []float64{1}); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0); err != nil {
				return err
			}
			if err := c.Tick(); err != nil {
				return err
			}
			h := c.Health()
			if len(h.Straggling) != 1 || h.Straggling[0] != 1 {
				t.Errorf("Straggling = %v", h.Straggling)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StragglerNanos != 10e6 {
		t.Errorf("StragglerNanos = %d, want 10e6 (full modeled duration)", stats.StragglerNanos)
	}
}

// TestLostFollowsPlanClock pins membership to the plan's op clock: rank
// 2 crashes at its Tick op 2, which no collective follows before the
// survivors read Lost, and the survivors' view at each op must not depend
// on who reaches the crash op first. Whether rank 2 sleeps before its
// crash op or the survivors sleep before theirs, each survivor reads no
// loss before op 3 and {2} from op 3 on — the instantaneous view would
// read {} in the first schedule and {2} early in the second.
func TestLostFollowsPlanClock(t *testing.T) {
	const P, ops = 3, 6
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 2, AtOp: 2}}}
	for _, sleeper := range []string{"crasher", "survivors"} {
		t.Run("sleep="+sleeper, func(t *testing.T) {
			var seen [P][ops + 1][]int
			_, err := RunPlan(P, plan, func(c *Comm) error {
				r := c.Rank()
				for op := 0; op < ops; op++ {
					seen[r][op] = c.Lost()
					if op == 2 && (r == 2) == (sleeper == "crasher") {
						time.Sleep(5 * time.Millisecond)
					}
					var err error
					if op%2 == 0 {
						err = c.Tick()
					} else {
						_, err = c.Allreduce([]float64{1}, Sum)
					}
					if err != nil {
						return err
					}
				}
				seen[r][ops] = c.Lost()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				for op, lost := range seen[r] {
					want := []int(nil)
					if op > 2 {
						want = []int{2}
					}
					if fmt.Sprint(lost) != fmt.Sprint(want) {
						t.Errorf("rank %d before op %d: Lost = %v, want %v", r, op, lost, want)
					}
				}
			}
		})
	}
}

func TestCrashDuringBarrierWaitReleasesSurvivors(t *testing.T) {
	// Rank 2's crash strikes at its second op — after it already entered
	// the first barrier. The survivors' *next* barrier must still release
	// (live count shrinks under them).
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 2, AtOp: 1}}}
	_, err := RunPlan(3, plan, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil { // rank 2 dies at this fault point
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChaosPlanNoDeadlock(t *testing.T) {
	// Chaos schedules across many seeds: whatever the injected mix, every
	// run must terminate — survivors either finish or observe errors, never
	// hang. Run under -race this doubles as the collectives' data-race
	// check in the presence of deaths.
	for seed := int64(1); seed <= 8; seed++ {
		plan := fault.Chaos(seed, 6, 10)
		_, err := RunPlan(6, plan, func(c *Comm) error {
			for i := 0; i < 6; i++ {
				if _, err := c.Allreduce([]float64{1}, Sum); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
