package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
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

// startBackends brings up n in-process tdmroutd servers and returns their
// base URLs.
func startBackends(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			ts.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// TestCoordMainSIGTERMDrain runs the coordinator daemon in-process over two
// real backends, puts a job mid-LR, and SIGTERMs the process: the drain must
// finish the job (the backend hands back its best-so-far incumbent), the
// client's stream must end with a done event, and the daemon must exit 0.
func TestCoordMainSIGTERMDrain(t *testing.T) {
	urls := startBackends(t, 2)
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- coordMain([]string{
			"-addr", "127.0.0.1:0",
			"-backend", urls[0],
			"-backend", urls[1],
			"-quiet",
		}, io.Discard, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-exit:
		t.Fatalf("coordMain exited with %d before becoming ready", code)
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never became ready")
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
	if !strings.HasPrefix(st.ID, "c") {
		t.Fatalf("job id %q is not coordinator-prefixed", st.ID)
	}
	// Follow the proxied SSE stream; SIGTERM the process at the first LR
	// event. The drain cancels the job on its backend, which finishes it
	// with a best-so-far incumbent the coordinator then relays — the stream
	// must end with a done event, not an error.
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

	// The drained incumbent must be legal. The window between the job
	// draining and the listener closing is narrow, so tolerate a connection
	// error but never a bad solution.
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
		t.Fatal("coordMain did not exit after SIGTERM")
	}
}

// TestCoordMainDrainOpenWaiters: a SIGTERM drain of the coordinator
// answers an open long-poll and ends an open stream, and the daemon exits
// promptly.
func TestCoordMainDrainOpenWaiters(t *testing.T) {
	urls := startBackends(t, 2)
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- coordMain([]string{
			"-addr", "127.0.0.1:0",
			"-backend", urls[0],
			"-backend", urls[1],
			"-quiet",
		}, io.Discard, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		servetest.DrainWithOpenWaiters(t, &serve.Client{BaseURL: "http://" + addr}, testInstance(t), exit)
	case code := <-exit:
		t.Fatalf("coordMain exited with %d before becoming ready", code)
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never became ready")
	}
}

// TestCoordMainEndToEnd runs a plain job through the daemon and pins the
// coordinator-only surface: backend attribution in status, /v1/backends, and
// a cache hit on resubmission.
func TestCoordMainEndToEnd(t *testing.T) {
	urls := startBackends(t, 2)
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- coordMain([]string{
			"-addr", "127.0.0.1:0",
			"-backend", urls[0],
			"-backend", urls[1],
			"-quiet",
		}, io.Discard, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-exit:
		t.Fatalf("coordMain exited with %d before becoming ready", code)
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never became ready")
	}
	defer func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		if code := <-exit; code != 0 {
			t.Errorf("exit code = %d, want 0", code)
		}
	}()

	in := testInstance(t)
	c := &serve.Client{BaseURL: "http://" + addr}
	ctx := context.Background()
	sub := serve.SubmitRequest{Instance: in}
	st, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("state = %s, want done (error %q)", final.State, final.Error)
	}
	if final.Backend == "" || final.Backend == "cache" {
		t.Fatalf("backend attribution = %q, want a real backend", final.Backend)
	}
	sol, err := c.Solution(ctx, st.ID, serve.FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if verr := problem.ValidateSolution(in, sol); verr != nil {
		t.Fatalf("solution invalid: %v", verr)
	}

	// The identical submission must replay from the result cache.
	st2, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.Backend != "cache" {
		t.Fatalf("resubmission backend = %q, want cache", final2.Backend)
	}
}

// TestCoordMainBadFlags pins the usage exit codes.
func TestCoordMainBadFlags(t *testing.T) {
	var buf strings.Builder
	if code := coordMain([]string{"-definitely-not-a-flag"}, &buf, nil); code != 2 {
		t.Fatalf("exit code = %d for an unknown flag, want 2", code)
	}
	buf.Reset()
	if code := coordMain([]string{"-addr", "127.0.0.1:0"}, &buf, nil); code != 2 {
		t.Fatalf("exit code = %d with no backends, want 2", code)
	}
	if !strings.Contains(buf.String(), "-backend") {
		t.Errorf("no-backend error does not name the flag: %q", buf.String())
	}
}
