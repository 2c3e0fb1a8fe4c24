package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	"tdmroute"
	"tdmroute/internal/problem"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/jobs/{id}/delta", s.handleDelta)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/solution", s.handleSolution)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// httpError writes a JSON error body alongside the status code.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) unavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Round(time.Second)/time.Second)))
	httpError(w, http.StatusServiceUnavailable, "%s", reason)
}

// handleSubmit accepts an instance — contest text (text/plain, the
// default), JSON (application/json), binary (application/octet-stream), or
// a multipart/form-data body whose "instance" part is any of those and
// whose "routing" part fixes the topology for assign mode — and queues one
// solve configured by the query parameters: mode, rounds, deadline, name,
// epsilon, maxiter, ripup, workers, pow2, partitions, retain.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.submitRejected.Add(1)
		s.unavailable(w, "server is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sub, err := ParseSubmit(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, deadline := s.resolve(sub)
	j, ok := s.submit(req, deadline, nil)
	if !ok {
		if s.draining.Load() {
			s.unavailable(w, "server is draining")
		} else {
			s.unavailable(w, "job queue is full")
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(s.statusOf(j))
}

// ParseSubmit decodes a POST /v1/jobs submission — the body in any of the
// three instance formats, or multipart/form-data with an optional routing
// part; the solver knobs in the query string — into the wire-level
// SubmitRequest. It is shared between the server (which resolves the knobs
// against its own solver defaults) and the coordinator (which forwards the
// request to a backend verbatim); the instance and routing are validated
// here so both tiers reject malformed submissions identically.
func ParseSubmit(r *http.Request) (SubmitRequest, error) {
	q := r.URL.Query()
	var sub SubmitRequest
	mode, err := tdmroute.ParseMode(q.Get("mode"))
	if err != nil {
		return sub, err
	}
	sub.Mode = mode
	sub.Name = q.Get("name")
	name := sub.Name
	if name == "" {
		name = "job"
	}

	mediatype := "text/plain"
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mediatype, _, err = mime.ParseMediaType(ct)
		if err != nil {
			return sub, fmt.Errorf("bad Content-Type: %v", err)
		}
	}
	var in *tdmroute.Instance
	var routingBytes []byte
	if mediatype == "multipart/form-data" {
		in, routingBytes, err = parseMultipart(r, name)
	} else {
		in, err = parseInstanceBody(mediatype, name, r.Body)
	}
	if err != nil {
		return sub, err
	}
	if err := tdmroute.ValidateInstance(in); err != nil {
		return sub, fmt.Errorf("invalid instance: %v", err)
	}
	sub.Instance = in

	if mode == tdmroute.ModeAssignOnly {
		if routingBytes == nil {
			return sub, fmt.Errorf("mode=assign requires a multipart \"routing\" part")
		}
		routes, err := tdmroute.ParseRouting(bytes.NewReader(routingBytes), in.G.NumEdges())
		if err != nil {
			return sub, fmt.Errorf("bad routing: %v", err)
		}
		if err := tdmroute.ValidateRouting(in, routes); err != nil {
			return sub, fmt.Errorf("invalid routing: %v", err)
		}
		sub.Routing = routes
	}

	if v := q.Get("deadline"); v != "" {
		if sub.Deadline, err = time.ParseDuration(v); err != nil || sub.Deadline < 0 {
			return sub, fmt.Errorf("bad deadline %q", v)
		}
	}
	if v := q.Get("rounds"); v != "" {
		if sub.Rounds, err = strconv.Atoi(v); err != nil {
			return sub, fmt.Errorf("bad rounds %q", v)
		}
	}
	if v := q.Get("epsilon"); v != "" {
		if sub.Epsilon, err = strconv.ParseFloat(v, 64); err != nil {
			return sub, fmt.Errorf("bad epsilon %q", v)
		}
	}
	if v := q.Get("maxiter"); v != "" {
		if sub.MaxIter, err = strconv.Atoi(v); err != nil {
			return sub, fmt.Errorf("bad maxiter %q", v)
		}
	}
	if v := q.Get("ripup"); v != "" {
		if sub.RipUp, err = strconv.Atoi(v); err != nil {
			return sub, fmt.Errorf("bad ripup %q", v)
		}
	}
	if v := q.Get("workers"); v != "" {
		if sub.Workers, err = strconv.Atoi(v); err != nil {
			return sub, fmt.Errorf("bad workers %q", v)
		}
	}
	if v := q.Get("partitions"); v != "" {
		if sub.Partitions, err = strconv.Atoi(v); err != nil || sub.Partitions < 0 {
			return sub, fmt.Errorf("bad partitions %q", v)
		}
	}
	if v := q.Get("pow2"); v == "1" || v == "true" {
		sub.Pow2 = true
	}
	if v := q.Get("retain"); v == "1" || v == "true" {
		if mode == tdmroute.ModeAssignOnly {
			return sub, fmt.Errorf("retain is not supported for mode=assign (there is no routing state to retain)")
		}
		sub.Retain = true
	}
	return sub, nil
}

// resolve turns the wire-level submission into the solve request by applying
// the server's solver defaults under the request's overrides.
func (s *Server) resolve(sub SubmitRequest) (tdmroute.Request, time.Duration) {
	req := tdmroute.Request{
		Instance: sub.Instance,
		Mode:     sub.Mode,
		Options:  s.cfg.SolveOptions,
		Rounds:   sub.Rounds,
		Routing:  sub.Routing,
		Retain:   sub.Retain,
	}
	if sub.Epsilon != 0 {
		req.Options.TDM.Epsilon = sub.Epsilon
	}
	if sub.MaxIter != 0 {
		req.Options.TDM.MaxIter = sub.MaxIter
	}
	if sub.RipUp != 0 {
		req.Options.Route.RipUpRounds = sub.RipUp
	}
	if sub.Workers != 0 {
		req.Options.Workers = sub.Workers
	}
	if sub.Partitions != 0 {
		req.Options.Partitions = sub.Partitions
	}
	if sub.Pow2 {
		req.Options.TDM.Legal = tdmroute.LegalPow2
	}
	return req, sub.Deadline
}

// parseInstanceBody decodes one instance in the format named by the media
// type.
func parseInstanceBody(mediatype, name string, body io.Reader) (*tdmroute.Instance, error) {
	switch mediatype {
	case "text/plain", "application/x-www-form-urlencoded", "":
		return tdmroute.ParseInstance(name, body)
	case "application/json":
		return tdmroute.ParseInstanceJSON(body)
	case "application/octet-stream":
		return tdmroute.ParseInstanceBinary(name, body)
	}
	return nil, fmt.Errorf("unsupported Content-Type %q (want text/plain, application/json, application/octet-stream, or multipart/form-data)", mediatype)
}

// parseMultipart reads an "instance" part (decoded by its own Content-Type)
// and an optional "routing" part (contest routing text, buffered until the
// instance's edge count is known).
func parseMultipart(r *http.Request, name string) (*tdmroute.Instance, []byte, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, nil, err
	}
	var in *tdmroute.Instance
	var routing []byte
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		switch part.FormName() {
		case "instance":
			mt := "text/plain"
			if ct := part.Header.Get("Content-Type"); ct != "" {
				if mt, _, err = mime.ParseMediaType(ct); err != nil {
					return nil, nil, fmt.Errorf("instance part: bad Content-Type: %v", err)
				}
			}
			if in, err = parseInstanceBody(mt, name, part); err != nil {
				return nil, nil, err
			}
		case "routing":
			if routing, err = io.ReadAll(part); err != nil {
				return nil, nil, err
			}
		}
	}
	if in == nil {
		return nil, nil, fmt.Errorf("multipart submission is missing an \"instance\" part")
	}
	return in, routing, nil
}

// statusOf snapshots a job and enriches it with node-resident state the job
// itself does not know: whether its warm session is still retained here.
func (s *Server) statusOf(j *job) *JobStatus {
	st := j.status()
	st.Retained = s.warm.has(j.id)
	return st
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statusOf(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	state := s.cancelJob(j)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"id": j.id, "state": state})
}

// handleEvents streams the job's progress as Server-Sent Events: recorded
// events from the resume cursor on are replayed, then live events follow
// until the job is terminal (the final event has type "done") or the client
// goes away. A reconnecting client resumes after the Last-Event-ID it saw;
// a cursor beyond the log is clamped to its end (the stream follows the
// live tail) instead of hanging the subscriber forever.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	next := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		next = id + 1
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, from, notify, terminal := j.eventsSince(next)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
		}
		next = from + len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// handleSolution serves the finished job's solution in the format named by
// ?format= (text, the default; json; binary). Degraded solutions are legal
// best-so-far incumbents and carry an X-Tdmroute-Degraded header naming the
// interrupted stage.
func (s *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	state := j.currentState()
	if !state.Terminal() {
		httpError(w, http.StatusConflict, "job %s is %s; no solution yet", j.id, state)
		return
	}
	sol, degraded := j.solution()
	if sol == nil {
		httpError(w, http.StatusConflict, "job %s is %s and produced no solution", j.id, state)
		return
	}
	if degraded != nil {
		w.Header().Set("X-Tdmroute-Degraded", string(degraded.Stage))
	}
	WriteSolutionResponse(w, r.URL.Query().Get("format"), sol, nil)
}

// WriteSolutionResponse renders a finished solution in the format named by
// ?format= (text, the default; json; binary). When text is non-nil it holds
// the canonical text serialization already in hand, and the text format
// serves those bytes verbatim — the coordinator uses this to return the
// exact bytes its digest check verified, which is what makes its replay
// guarantee byte-level rather than merely semantic.
func WriteSolutionResponse(w http.ResponseWriter, format string, sol *tdmroute.Solution, text []byte) {
	var buf bytes.Buffer
	var err error
	switch format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if text != nil {
			w.Write(text)
			return
		}
		err = problem.WriteSolution(&buf, sol)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		err = problem.WriteSolutionJSON(&buf, sol)
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		err = problem.WriteSolutionBinary(&buf, sol)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want text, json, or binary)", format)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(buf.Bytes())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	running := 0
	for _, j := range s.jobs {
		if j.currentState() == StateRunning {
			running++
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, len(s.queue), cap(s.queue), running, s.cfg.Workers, s.warm.size(), s.draining.Load())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
