// Command tdmroutd serves the co-optimization solver over HTTP: a bounded
// job queue, a fixed pool of solve workers, per-job deadlines, SSE progress
// streaming, and a graceful SIGTERM drain in which in-flight jobs finish
// with their best-so-far incumbents and queued jobs are rejected with
// Retry-After.
//
// Usage:
//
//	tdmroutd [-addr :8080] [-pool 2] [-queue 16] [-workers N]
//	         [-deadline 0] [-max-deadline 0] [-drain-timeout 30s]
//	         [-epsilon 0] [-maxiter 0] [-ripup 0] [-warm 4] [-quiet]
//
// -warm bounds the node-resident warm sessions kept for delta re-solves
// (submissions with retain=1); the least recently used idle session is
// evicted over the cap, and -warm -1 disables retention.
//
// Endpoints are documented in the serve package. Exit status: 0 after a
// clean drain, 1 on a serve or drain error, 2 on usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tdmroute"
	"tdmroute/internal/serve"
)

func main() {
	os.Exit(serverMain(os.Args[1:], os.Stderr, nil))
}

// serverMain runs the server until a termination signal and returns the
// exit code. ready, when non-nil, receives the bound address once the
// listener is accepting — the in-process tests use it to find the port.
func serverMain(args []string, logw io.Writer, ready func(addr string)) int {
	fs := flag.NewFlagSet("tdmroutd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		pool         = fs.Int("pool", 2, "solve worker pool size (concurrent jobs)")
		queue        = fs.Int("queue", 16, "queued-job bound; submissions beyond it get 503 + Retry-After")
		workers      = fs.Int("workers", 0, "per-solve worker goroutines (0 = one); the solution is identical for every count")
		deadline     = fs.Duration("deadline", 0, "default per-job deadline (0 = none)")
		maxDeadline  = fs.Duration("max-deadline", 0, "per-job deadline cap (0 = unlimited)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before giving up")
		epsilon      = fs.Float64("epsilon", 0, "default LR convergence criterion (0 = paper default)")
		maxIter      = fs.Int("maxiter", 0, "default LR iteration limit (0 = default 500)")
		ripup        = fs.Int("ripup", 0, "default rip-up rounds (0 = default, -1 = disable)")
		warm         = fs.Int("warm", 0, "retained warm session cap for delta re-solves (0 = default 4, -1 = disable)")
		quiet        = fs.Bool("quiet", false, "suppress per-job log lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(logw, "tdmroutd: "+format+"\n", a...)
	}
	cfg := serve.Config{
		Workers:         *pool,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MaxWarmSessions: *warm,
		SolveOptions: tdmroute.Options{
			Route:   tdmroute.RouteOptions{RipUpRounds: *ripup},
			TDM:     tdmroute.TDMOptions{Epsilon: *epsilon, MaxIter: *maxIter},
			Workers: *workers,
		},
	}
	if !*quiet {
		cfg.Logf = logf
	}
	srv := serve.New(cfg)
	d := &serve.Daemon{
		Addr:         *addr,
		Handler:      srv.Handler(),
		Drain:        srv.Shutdown,
		DrainTimeout: *drainTimeout,
		Logf:         logf,
		Banner:       fmt.Sprintf("(pool %d, queue %d)", *pool, *queue),
		DrainNote:    "(in-flight jobs finish with best-so-far incumbents)",
		Ready:        ready,
	}
	return d.Run()
}
