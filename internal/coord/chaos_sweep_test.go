package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tdmroute/internal/serve"
)

// sweepVector is one serve-tier fault shape the sweep can inject.
type sweepVector int

const (
	sweepNone sweepVector = iota
	sweepKillVictim
	sweepKillAll
	sweepCorruptVictim
	sweepCorruptAll
	sweepPartitionVictim
	sweepVectors // count
)

func (v sweepVector) String() string {
	switch v {
	case sweepNone:
		return "none"
	case sweepKillVictim:
		return "kill-victim"
	case sweepKillAll:
		return "kill-all"
	case sweepCorruptVictim:
		return "corrupt-victim"
	case sweepCorruptAll:
		return "corrupt-all"
	case sweepPartitionVictim:
		return "partition-victim"
	default:
		return fmt.Sprintf("vector(%d)", int(v))
	}
}

// typedCoordErr reports whether a coordinator job's terminal error unwraps
// to one of the tier's typed errors (or a context sentinel) — the only
// failures the chaos contract permits.
func typedCoordErr(err error) bool {
	return errors.Is(err, ErrNoBackends) ||
		errors.Is(err, ErrAttemptsExhausted) ||
		errors.Is(err, ErrCorruptResponse) ||
		errors.Is(err, ErrSessionLost) ||
		errors.Is(err, errStalled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// TestCoordinatorChaosSweep is the serve-tier counterpart of the solver
// chaos harness: seeded faults — backend death mid-stream, fleet-wide
// death, corrupted responses, partitions — injected under real jobs on a
// real fleet. The invariant never weakens: every job ends either in a typed
// coordinator error or as a completed job whose solution bytes and event
// log are identical to an uninterrupted run. Each seed reproduces its
// injection from the (seed, vector) pair alone.
func TestCoordinatorChaosSweep(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	sub := serve.SubmitRequest{Instance: in}
	_, refText, refEvents := reference(t, bcfg, sub)
	lrTotal := 0
	for _, e := range refEvents {
		if e.Type == "lr" {
			lrTotal++
		}
	}

	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			vector := sweepVector(rng.Intn(int(sweepVectors)))
			budget := rng.Intn(3)
			if lrTotal > 0 && budget >= lrTotal {
				budget = lrTotal - 1
			}
			t.Logf("vector %s, kill budget %d", vector, budget)

			f := startFleet(t, 3, bcfg)
			co, c := startCoord(t, f, func(cfg *Config) {
				cfg.RequestTimeout = 2 * time.Second
				cfg.StallTimeout = 2 * time.Second
			})
			v := f.victim(t, co, sub)
			switch vector {
			case sweepKillVictim:
				f.gates[v].KillAfterLR(budget)
			case sweepKillAll:
				for _, g := range f.gates {
					g.KillAfterLR(budget)
				}
			case sweepCorruptVictim:
				f.gates[v].CorruptSolutions(seed + 1)
			case sweepCorruptAll:
				for i, g := range f.gates {
					g.CorruptSolutions(seed + int64(i) + 1)
				}
			case sweepPartitionVictim:
				f.gates[v].Partition(true)
				defer f.gates[v].Partition(false)
			}

			ctx := context.Background()
			st, err := c.Submit(ctx, sub)
			if err != nil {
				t.Fatalf("submit rejected: %v", err)
			}
			events := collectEvents(t, c, st.ID)
			final, err := c.Status(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}

			switch final.State {
			case serve.StateDone:
				if final.Response == nil || final.Response.Degraded != nil {
					t.Fatalf("done job degraded or empty under %s: nothing in the sweep cancels", vector)
				}
				text, err := c.SolutionBytes(ctx, st.ID, serve.FormatText)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(text, refText) {
					t.Fatalf("vector %s: completed job's solution differs from an uninterrupted run", vector)
				}
				if fmt.Sprintf("%v", events) != fmt.Sprintf("%v", refEvents) {
					t.Fatalf("vector %s: completed job's event log differs from an uninterrupted run:\ngot  %v\nwant %v",
						vector, events, refEvents)
				}
			case serve.StateFailed:
				j, _ := co.Lookup(st.ID).(*cjob)
				if j == nil {
					t.Fatal("failed job vanished from the coordinator")
				}
				if !typedCoordErr(j.Err()) {
					t.Fatalf("vector %s: failed job's error is not typed: %v", vector, j.Err())
				}
				if final.Error == "" {
					t.Fatalf("vector %s: failed job reports no error over the wire", vector)
				}
			default:
				t.Fatalf("vector %s: terminal state %s is neither done nor failed", vector, final.State)
			}
		})
	}
}
