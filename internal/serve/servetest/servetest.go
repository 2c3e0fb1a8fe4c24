//go:build unix

// Package servetest holds test helpers shared by the tdmroutd and tdmcoord
// daemon tests.
package servetest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"tdmroute"
	"tdmroute/internal/serve"
)

// DrainWithOpenWaiters submits in as a job that stays in LR until
// interrupted, opens a long-poll and an event stream on it, and SIGTERMs
// the process at the stream's first LR event. The daemon must answer
// both, the long-poll with the drained terminal status, and exit 0 well
// before a 20 s drain budget runs out. exit is the daemon's exit-code channel.
func DrainWithOpenWaiters(t *testing.T, c *serve.Client, in *tdmroute.Instance, exit <-chan int) {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, serve.SubmitRequest{Instance: in, Epsilon: 1e-12, MaxIter: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	type polled struct {
		st  serve.JobStatus
		err error
	}
	//lint:ignore rawgo test harness, not solver parallelism: hands the long-poll answer back
	pollc := make(chan polled, 1)
	//lint:ignore rawgo test harness, not solver parallelism: marks the long-poll as sent
	sent := make(chan struct{})
	markSent := sync.OnceFunc(func() { close(sent) })
	trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { markSent() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace),
		http.MethodGet, c.BaseURL+"/v1/jobs/"+st.ID+"?wait=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore rawgo test harness, not solver parallelism: the long-poll stays open while the stream is followed
	go func() {
		var p polled
		resp, err := http.DefaultClient.Do(req)
		markSent()
		if err != nil {
			p.err = err
		} else {
			p.err = json.NewDecoder(resp.Body).Decode(&p.st)
			resp.Body.Close()
		}
		pollc <- p
	}()
	var sigAt time.Time
	streamErr := c.Stream(ctx, st.ID, func(e serve.Event) error {
		if e.Type == "lr" && sigAt.IsZero() {
			<-sent // the long-poll is open before the drain begins
			sigAt = time.Now()
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				return fmt.Errorf("kill: %v", err)
			}
		}
		return nil
	})
	if streamErr != nil {
		t.Fatalf("stream: %v", streamErr)
	}
	if sigAt.IsZero() {
		t.Fatal("job finished before any LR event; nothing was drained")
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code = %d after SIGTERM drain, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if d := time.Since(sigAt); d > 10*time.Second {
		t.Fatalf("drain with an open long-poll and stream took %v", d)
	}
	p := <-pollc
	if p.err != nil {
		t.Fatalf("long-poll open across the drain: %v", p.err)
	}
	if p.st.State != serve.StateDone || p.st.Response == nil || p.st.Response.Degraded == nil {
		t.Fatalf("long-poll open across the drain answered state %s; want done with a degraded incumbent", p.st.State)
	}
}
