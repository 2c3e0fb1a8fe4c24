package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	"tdmroute"
	"tdmroute/internal/problem"
)

// ParseSubmit decodes a POST /v1/jobs submission — the body in any of the
// three instance formats, or multipart/form-data with an optional routing
// part; the solver knobs in the query string (mode, rounds, deadline, name,
// epsilon, maxiter, ripup, workers, pow2, partitions, retain) — into the
// wire-level SubmitRequest. It is shared between the server (which resolves the knobs
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

// writeSolution renders a finished solution in the format named by
// ?format= (text, the default; json; binary). When text is non-nil it holds
// the canonical text serialization already in hand, and the text format
// serves those bytes verbatim — the coordinator uses this to return the
// exact bytes its digest check verified, which is what makes its replay
// guarantee byte-level rather than merely semantic.
func writeSolution(w http.ResponseWriter, format string, sol *tdmroute.Solution, text []byte) {
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

// solutionDigest is the hex SHA-256 of the text solution writeSolution
// serves by default: the digest a job's Telemetry carries.
func solutionDigest(sol *tdmroute.Solution) (string, error) {
	h := sha256.New()
	if err := problem.WriteSolution(h, sol); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
