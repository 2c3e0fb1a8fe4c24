// Command tdmcoord fronts a fleet of tdmroutd backends with the
// fault-tolerant coordinator tier: consistent rendezvous placement, a
// content-addressed result cache, health-checked backends behind circuit
// breakers, replay-safe re-dispatch when a backend dies mid-job, and the
// same HTTP+SSE surface as a single node, so any tdmroutd client works
// against it unchanged.
//
// Usage:
//
//	tdmcoord -backend http://host1:8080 -backend http://host2:8080 ...
//	         [-addr :8090] [-cache 256] [-attempts 3] [-breaker 3]
//	         [-probe 2s] [-probe-cap 30s] [-request-timeout 30s]
//	         [-stall 2m] [-retry-after 1s] [-drain-timeout 30s] [-quiet]
//
// At least one -backend is required. SIGTERM drains like tdmroutd: new
// submissions are rejected with Retry-After, in-flight jobs are cancelled
// on their backends and finish with best-so-far incumbents.
//
// Endpoints match the serve package, plus GET /v1/backends (per-backend
// breaker state) and an aggregated /metrics whose backend series carry an
// injected backend label. Exit status: 0 after a clean drain, 1 on a serve
// or drain error, 2 on usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tdmroute/internal/coord"
	"tdmroute/internal/serve"
)

func main() {
	os.Exit(coordMain(os.Args[1:], os.Stderr, nil))
}

// stringsFlag collects repeated -backend flags.
type stringsFlag []string

func (s *stringsFlag) String() string { return fmt.Sprint(*s) }
func (s *stringsFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// coordMain runs the coordinator until a termination signal and returns
// the exit code. ready, when non-nil, receives the bound address once the
// listener is accepting — the in-process tests use it to find the port.
func coordMain(args []string, logw io.Writer, ready func(addr string)) int {
	fs := flag.NewFlagSet("tdmcoord", flag.ContinueOnError)
	fs.SetOutput(logw)
	var backends stringsFlag
	fs.Var(&backends, "backend", "tdmroutd base URL (repeat once per backend; required)")
	var (
		addr           = fs.String("addr", ":8090", "listen address")
		cacheEntries   = fs.Int("cache", 0, "content-addressed result cache entries (0 = default 256, -1 = disable)")
		attempts       = fs.Int("attempts", 0, "dispatch attempts per job across backend losses (0 = default 3)")
		breaker        = fs.Int("breaker", 0, "consecutive failures that open a backend's breaker (0 = default 3)")
		probe          = fs.Duration("probe", 0, "health probe interval (0 = default 2s)")
		probeCap       = fs.Duration("probe-cap", 0, "probe backoff cap while a breaker is open (0 = default 30s)")
		requestTimeout = fs.Duration("request-timeout", 0, "per-call backend budget (0 = default 30s)")
		stall          = fs.Duration("stall", 0, "silent-stream budget before a backend is declared partitioned (0 = default 2m)")
		retryAfter     = fs.Duration("retry-after", 0, "Retry-After hint on 503 rejections (0 = default 1s)")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before giving up")
		quiet          = fs.Bool("quiet", false, "suppress per-job log lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(logw, "tdmcoord: "+format+"\n", a...)
	}
	if len(backends) == 0 {
		logf("at least one -backend is required")
		fs.Usage()
		return 2
	}

	cfg := coord.Config{
		Backends:         backends,
		CacheEntries:     *cacheEntries,
		MaxAttempts:      *attempts,
		BreakerThreshold: *breaker,
		ProbeInterval:    *probe,
		ProbeBackoffCap:  *probeCap,
		RequestTimeout:   *requestTimeout,
		StallTimeout:     *stall,
		RetryAfter:       *retryAfter,
	}
	if !*quiet {
		cfg.Logf = logf
	}
	co, err := coord.New(cfg)
	if err != nil {
		logf("%v", err)
		return 2
	}

	d := &serve.Daemon{
		Addr:         *addr,
		Handler:      co.Handler(),
		Drain:        co.Shutdown,
		DrainTimeout: *drainTimeout,
		Logf:         logf,
		Banner:       fmt.Sprintf("(%d backends)", len(backends)),
		DrainNote:    "(in-flight jobs are cancelled on their backends)",
		Ready:        ready,
	}
	return d.Run()
}
