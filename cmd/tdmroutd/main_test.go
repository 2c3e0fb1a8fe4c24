package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"tdmroute"
	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
	"tdmroute/internal/serve/servetest"
)

func testInstance(t *testing.T) *tdmroute.Instance {
	t.Helper()
	cfg, err := gen.SuiteConfig("synopsys01", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Name = "synopsys01"
	return in
}

// TestServerMainSIGTERMDrain runs the daemon in-process, puts a job mid-LR,
// and SIGTERMs the process: the daemon must finish the job with its
// best-so-far incumbent, reject nothing silently, and exit 0.
func TestServerMainSIGTERMDrain(t *testing.T) {
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- serverMain([]string{"-addr", "127.0.0.1:0", "-pool", "1", "-quiet"},
			io.Discard, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-exit:
		t.Fatalf("serverMain exited with %d before becoming ready", code)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	in := testInstance(t)
	c := &serve.Client{BaseURL: "http://" + addr}
	ctx := context.Background()
	if ok, err := c.Healthy(ctx); err != nil || !ok {
		t.Fatalf("Healthy = %v, %v; want true", ok, err)
	}

	// A job that stays in LR until interrupted.
	st, err := c.Submit(ctx, serve.SubmitRequest{Instance: in, Epsilon: 1e-12, MaxIter: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// Follow the SSE stream; SIGTERM the process at the first LR event.
	// The stream must then end with a "done" event carrying the terminal
	// state — the drain finishing the job, not dropping it.
	var last serve.Event
	sigSent := false
	streamErr := c.Stream(ctx, st.ID, func(e serve.Event) error {
		last = e
		if e.Type == "lr" && !sigSent {
			sigSent = true
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				return fmt.Errorf("kill: %v", err)
			}
		}
		return nil
	})
	if streamErr != nil {
		t.Fatalf("stream: %v (last event %+v)", streamErr, last)
	}
	if !sigSent {
		t.Fatal("job finished before any LR event; nothing was drained")
	}
	if last.Type != "done" || last.State != serve.StateDone {
		t.Fatalf("final event = %+v, want a done event with state done", last)
	}

	// The job drained with a best-so-far incumbent; fetch it through the
	// still-open HTTP server (connections drain after jobs do) and check
	// it is legal. The window between job drain and socket close is
	// narrow, so tolerate a connection error but not a bad solution.
	if final, err := c.Status(ctx, st.ID); err == nil {
		if final.Response == nil || final.Response.Degraded == nil {
			t.Errorf("drained job reports no Degraded: %+v", final.Response)
		}
		if sol, err := c.Solution(ctx, st.ID, serve.FormatText); err == nil {
			if verr := problem.ValidateSolution(in, sol); verr != nil {
				t.Errorf("drained incumbent invalid: %v", verr)
			}
		}
	}

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code = %d after SIGTERM drain, want 0", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serverMain did not exit after SIGTERM")
	}
}

// TestServerMainDrainOpenWaiters: a SIGTERM drain answers an open
// long-poll and ends an open stream, and the daemon exits promptly.
func TestServerMainDrainOpenWaiters(t *testing.T) {
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- serverMain([]string{"-addr", "127.0.0.1:0", "-pool", "1", "-quiet"},
			io.Discard, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		servetest.DrainWithOpenWaiters(t, &serve.Client{BaseURL: "http://" + addr}, testInstance(t), exit)
	case code := <-exit:
		t.Fatalf("serverMain exited with %d before becoming ready", code)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
}

// TestServerMainBadFlags pins the usage exit code.
func TestServerMainBadFlags(t *testing.T) {
	var buf strings.Builder
	if code := serverMain([]string{"-definitely-not-a-flag"}, &buf, nil); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(buf.String(), "tdmroutd") {
		t.Errorf("usage output missing program name: %q", buf.String())
	}
}

// TestServerMainListenError covers a busy port.
func TestServerMainListenError(t *testing.T) {
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- serverMain([]string{"-addr", "127.0.0.1:0", "-quiet"},
			io.Discard, func(addr string) { ready <- addr })
	}()
	addr := <-ready
	var buf strings.Builder
	if code := serverMain([]string{"-addr", addr, "-quiet"}, &buf, nil); code != 1 {
		t.Fatalf("exit code = %d for a busy port, want 1", code)
	}
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	if code := <-exit; code != 0 {
		t.Fatalf("first server exited %d, want 0", code)
	}
}
