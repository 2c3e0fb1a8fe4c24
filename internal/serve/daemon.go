package serve

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Daemon is one serving process, tdmroutd or tdmcoord: the address it
// listens on, the handler that answers there, and the drain that runs
// before the connections close.
type Daemon struct {
	Addr    string
	Handler http.Handler
	// Drain winds the jobs down on SIGINT or SIGTERM, within DrainTimeout.
	Drain        func(context.Context) error
	DrainTimeout time.Duration
	Logf         func(format string, args ...any)
	// Banner follows "listening on <addr> " in the startup line, and
	// DrainNote follows "<signal>: draining " when a signal arrives.
	Banner, DrainNote string
	// Ready, when non-nil, receives the bound address once the listener is
	// accepting.
	Ready func(addr string)
}

// Run serves until a termination signal, then drains, and returns the exit
// code: 0 after a clean drain, 1 on a listen, serve or drain error.
func (d *Daemon) Run() int {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		d.Logf("%v", err)
		return 1
	}
	hs := &http.Server{Handler: d.Handler}

	// The signal handler is installed before the listener is announced so
	// a SIGTERM can never race the serving loop's setup.
	//lint:ignore rawgo daemon signal relay, not solver parallelism: os/signal requires a buffered channel
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	//lint:ignore rawgo HTTP serve loop result channel, not solver parallelism: single buffered handoff from the serving goroutine
	errc := make(chan error, 1)
	//lint:ignore rawgo HTTP serving goroutine, not solver parallelism: http.Server.Serve blocks for the daemon's lifetime
	go func() { errc <- hs.Serve(ln) }()

	d.Logf("listening on %s %s", ln.Addr(), d.Banner)
	if d.Ready != nil {
		d.Ready(ln.Addr().String())
	}

	select {
	case sig := <-sigc:
		d.Logf("%v: draining %s", sig, d.DrainNote)
		ctx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
		defer cancel()
		// Jobs first, connections second: SSE streams end once every job
		// is terminal, so the HTTP shutdown that follows can complete.
		if err := d.Drain(ctx); err != nil {
			d.Logf("drain failed: %v", err)
			return 1
		}
		if err := hs.Shutdown(ctx); err != nil {
			d.Logf("http shutdown: %v", err)
			return 1
		}
		d.Logf("drained cleanly")
		return 0
	case err := <-errc:
		d.Logf("serve: %v", err)
		return 1
	}
}
