package main

//lint:file-ignore rawgo benchmark plumbing, not solver parallelism: a reader goroutine drains each server's stderr until the process exits

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tdmroute"
	"tdmroute/internal/serve"
)

// serveBackends is the size of the fleet scripts/serve_smoke.sh starts
// behind its coordinator. Each tdmroutd runs with its default flags (the
// smoke script's -pool 2 is the default).
const serveBackends = 3

// runServe measures jobs through the serving tier: a tdmcoord coordinator in
// front of serveBackends tdmroutd backends, all separate processes on
// localhost, at the servers' default solver options. One closed-loop client
// submits a fresh instance, waits on the job's event stream until it is
// done, fetches the solution text and parses it, then submits the next.
// Every instance is distinct, so the coordinator's result cache never
// answers. A job's processor time is the client's, measured per job, plus
// the fleet's, read for the whole measured window. Set-up is starting a
// fleet until it serves and stopping it, setupRounds times, each time
// costing the client's processor time plus the servers' over their lives;
// then the measured fleet starts.
func runServe(b *bench) error {
	for r := 0; r < setupRounds; r++ {
		c0 := selfCPU()
		f, err := b.startFleet()
		if err != nil {
			return err
		}
		startCPU := selfCPU() - c0
		if err := f.stop(); err != nil {
			return err
		}
		b.setups = append(b.setups, scaled(startCPU+f.lifeCPU(), b.recalibrate())/1e3)
	}
	f, err := b.startFleet()
	if err != nil {
		return err
	}
	before, err := f.runningCPU()
	if err != nil {
		f.stop()
		return err
	}
	client := &serve.Client{BaseURL: f.url, HTTPClient: &http.Client{Timeout: 60 * time.Second}}
	var done []served
	var genErr error
	b.measure(func(n int) bool {
		text, err := b.genText(n)
		if err != nil {
			genErr = err
			return false
		}
		j := served{name: fmt.Sprintf("serve%d", n)}
		if j.in, err = tdmroute.ParseInstance(j.name, bytes.NewReader(text)); err != nil {
			genErr = fmt.Errorf("input %d: %w", n, err)
			return false
		}
		if err := b.serveOp(client, &j, n); err != nil {
			b.fail("job %d: %v", n, err)
			return true
		}
		done = append(done, j)
		return true
	})
	after, cpuErr := f.runningCPU()
	client.HTTPClient.CloseIdleConnections()
	if err := f.stop(); err != nil {
		return err
	}
	if genErr != nil {
		return genErr
	}
	if cpuErr != nil {
		return cpuErr
	}
	b.fleetCPU = after - before
	for _, j := range done {
		if err := j.check(); err != nil {
			b.fail("job %s: %v", j.st.ID, err)
		}
	}
	return nil
}

// served is one job: its instance, and once finished its final status and
// solution, awaiting their check.
type served struct {
	name    string
	in      *tdmroute.Instance
	st      *serve.JobStatus
	sol     *tdmroute.Solution
	solText []byte
}

// serveOp runs one job end to end with the serving tier's own client:
// submit, wait until the job is done, fetch the solution text, and parse it.
func (b *bench) serveOp(c *serve.Client, j *served, n int) error {
	ctx := context.Background()
	var s sample
	op := b.tr.begin("op", n, -1)
	t0, c0 := time.Now(), selfCPU()
	err := func() error {
		var err error
		b.tr.call("submit", n, op, func() {
			j.st, err = c.Submit(ctx, serve.SubmitRequest{Instance: j.in, Name: j.name, Format: serve.FormatText})
		})
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		id := j.st.ID
		if b.tr.call("wait", n, op, func() { j.st, err = c.Wait(ctx, id) }); err != nil {
			return fmt.Errorf("wait: %w", err)
		}
		if b.tr.call("fetch", n, op, func() { j.solText, err = c.SolutionBytes(ctx, id, serve.FormatText) }); err != nil {
			return fmt.Errorf("solution: %w", err)
		}
		s.codec += b.tr.call("parse", n, op, func() {
			j.sol, err = tdmroute.ParseSolution(bytes.NewReader(j.solText), j.in.G.NumEdges())
		})
		return err
	}()
	s.wall, s.cpu = time.Since(t0), selfCPU()-c0
	b.tr.end(op)
	if err != nil {
		return err
	}
	if j.st.State != serve.StateDone || j.st.Response == nil {
		return fmt.Errorf("job %s ended %s: %s", j.st.ID, j.st.State, j.st.Error)
	}
	s.addStages(j.st.Response)
	s.cal = b.recalibrate()
	b.record(s)
	return nil
}

// check verifies a served solution against the instance the client sent:
// legal, with the GTR_max the job reported, and with the digest the
// server's telemetry gives for it.
func (j *served) check() error {
	if j.st.Response.Degraded != nil {
		return fmt.Errorf("degraded: %v", j.st.Response.Degraded)
	}
	if err := tdmroute.ValidateSolution(j.in, j.sol); err != nil {
		return fmt.Errorf("illegal solution: %w", err)
	}
	if gtr, _ := tdmroute.Evaluate(j.in, j.sol); gtr != j.st.Response.Report.GTRMax {
		return fmt.Errorf("GTR_max %d, reported %d", gtr, j.st.Response.Report.GTRMax)
	}
	if j.st.Telemetry == nil {
		return errors.New("job status carries no telemetry")
	}
	if sum := sha256.Sum256(j.solText); hex.EncodeToString(sum[:]) != j.st.Telemetry.SolutionSHA256 {
		return errors.New("solution bytes do not match the job's digest")
	}
	return nil
}

// fleet is a running coordinator and its backends.
type fleet struct {
	procs  []*proc // backends first, coordinator last
	exited []*proc // the processes stop waited for
	url    string
}

// startFleet starts the backends, then the coordinator in front of them,
// and returns once the coordinator answers its health check.
func (b *bench) startFleet() (*fleet, error) {
	f := &fleet{}
	args := []string{"-addr", "127.0.0.1:0", "-quiet"}
	for i := 0; i < serveBackends; i++ {
		p, addr, err := b.startProc("tdmroutd", "-addr", "127.0.0.1:0", "-quiet")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		args = append(args, "-backend", "http://"+addr)
	}
	p, addr, err := b.startProc("tdmcoord", args...)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append(f.procs, p)
	f.url = "http://" + addr
	ok, err := (&serve.Client{BaseURL: f.url}).Healthy(context.Background())
	if err == nil && !ok {
		err = errors.New("coordinator is not healthy")
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// runningCPU returns the processor time the fleet's processes have used so
// far, to the clock tick.
func (f *fleet) runningCPU() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.procs {
		d, err := runningCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += d
	}
	return sum, nil
}

// lifeCPU returns the processor time the processes of a stopped fleet used
// over their lives.
func (f *fleet) lifeCPU() time.Duration {
	var sum time.Duration
	for _, p := range f.exited {
		sum += rusageCPU(p.cmd.ProcessState.SysUsage().(*syscall.Rusage))
	}
	return sum
}

// stop drains the coordinator, then the backends; each must exit cleanly.
func (f *fleet) stop() error {
	var first error
	for i := len(f.procs) - 1; i >= 0; i-- {
		if err := f.procs[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	f.exited = append(f.exited, f.procs...)
	f.procs = nil
	return first
}

// proc is a server process whose standard error is drained in the
// background (it logs its listen address there).
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed when standard error reaches EOF
}

// startProc starts a server on a free port and returns its address.
func (b *bench) startProc(name string, args ...string) (*proc, string, error) {
	cmd := exec.Command(filepath.Join(".bench_build", "bin", name), args...)
	// Servers must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return p, addr, nil
	case <-p.done:
		err = cmd.Wait()
		return nil, "", fmt.Errorf("%s exited before listening: %v", name, err)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, "", fmt.Errorf("%s did not start listening", name)
	}
}

// stop sends SIGTERM (a graceful drain), kills the process if the drain
// takes too long, and waits for it to exit.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // a process that already exited is reported by Wait
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill() // Wait below reports the forced exit
		<-p.done
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return nil
}
