package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"
	"testing"

	"tdmroute"
	"tdmroute/internal/problem"
)

// fuzzRequest builds the request a handler would see, without the URL
// validation of httptest.NewRequest: a fuzzed query must reach the parser
// however malformed it is.
func fuzzRequest(body []byte, contentType, rawQuery string) *http.Request {
	r := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/v1/jobs", RawQuery: rawQuery},
		Header: http.Header{},
		Body:   io.NopCloser(bytes.NewReader(body)),
	}
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	return r
}

// tinySubmitInstance is a three-FPGA instance small enough that every
// mutation of it parses in microseconds.
func tinySubmitInstance(t testing.TB) *tdmroute.Instance {
	t.Helper()
	in, err := tdmroute.ParseInstance("tiny", bytes.NewReader([]byte("3 2 2 1\n0 1\n1 2\n2 0 2\n2 0 1\n2 0 1\n")))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// FuzzParseSubmit feeds body bytes, a Content-Type and a raw query through
// ParseSubmit, the one validation both tiers run on POST /v1/jobs. It must
// never panic, and whatever it accepts must be solvable as given: the
// instance passes ValidateInstance and, in assign mode, the fixed routing
// passes ValidateRouting.
func FuzzParseSubmit(f *testing.F) {
	in := tinySubmitInstance(f)
	var text, js, bin bytes.Buffer
	if err := problem.WriteInstance(&text, in); err != nil {
		f.Fatal(err)
	}
	if err := problem.WriteInstanceJSON(&js, in); err != nil {
		f.Fatal(err)
	}
	if err := problem.WriteInstanceBinary(&bin, in); err != nil {
		f.Fatal(err)
	}
	resp, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in})
	if err != nil {
		f.Fatal(err)
	}
	var multi bytes.Buffer
	mw := multipart.NewWriter(&multi)
	if err := mw.SetBoundary("fuzzboundary"); err != nil {
		f.Fatal(err)
	}
	part, err := mw.CreateFormField("instance")
	if err != nil {
		f.Fatal(err)
	}
	part.Write(text.Bytes())
	rpart, err := mw.CreateFormField("routing")
	if err != nil {
		f.Fatal(err)
	}
	if err := problem.WriteRouting(rpart, resp.Solution.Routes); err != nil {
		f.Fatal(err)
	}
	mw.Close()

	f.Add(text.Bytes(), "text/plain", "mode=single&deadline=1s&rounds=2")
	f.Add(text.Bytes(), "", "retain=1&partitions=2&pow2=1&name=x")
	f.Add(js.Bytes(), "application/json", "epsilon=0.01&maxiter=5&ripup=1&workers=2")
	f.Add(bin.Bytes(), "application/octet-stream", "mode=iterative")
	f.Add(multi.Bytes(), mw.FormDataContentType(), "mode=assign")
	f.Add(multi.Bytes(), mw.FormDataContentType(), "mode=assign&retain=1")
	f.Add([]byte("not an instance"), "text/plain", "deadline=-1s&partitions=-2")
	f.Add(text.Bytes(), "text/plain; charset=", "%zz")
	f.Fuzz(func(t *testing.T, body []byte, contentType, rawQuery string) {
		sub, err := ParseSubmit(fuzzRequest(body, contentType, rawQuery))
		if err != nil {
			return
		}
		if verr := tdmroute.ValidateInstance(sub.Instance); verr != nil {
			t.Fatalf("accepted an invalid instance: %v", verr)
		}
		if sub.Mode == tdmroute.ModeAssignOnly {
			if verr := tdmroute.ValidateRouting(sub.Instance, sub.Routing); verr != nil {
				t.Fatalf("accepted an invalid routing for mode=assign: %v", verr)
			}
		}
		if sub.Deadline < 0 || sub.Partitions < 0 {
			t.Fatalf("accepted a negative deadline %v or partition count %d", sub.Deadline, sub.Partitions)
		}
	})
}

// FuzzDeltaRequest feeds body bytes and a raw query through the delta
// body and deadline parse both tiers share. It must never panic; an
// accepted request has a non-negative deadline and a body that survives a
// JSON round trip and the conversion to the solver's delta unchanged in
// size.
func FuzzDeltaRequest(f *testing.F) {
	f.Add([]byte(`{"add_nets":[{"terminals":[0,2],"groups":[0]}],"remove_nets":[1]}`), "deadline=2s")
	f.Add([]byte(`{"group_add":[{"group":0,"net":1}],"group_remove":[{"group":0,"net":0}]}`), "")
	f.Add([]byte(`{"edge_bias":[{"edge":1,"delta":-3}]}`), "deadline=-1s")
	f.Add([]byte(`{"add_nets":[]}`), "deadline=%zz")
	f.Add([]byte(`[1,2]`), "")
	f.Fuzz(func(t *testing.T, body []byte, rawQuery string) {
		doc, deadline, err := parseDelta(fuzzRequest(body, "application/json", rawQuery))
		if err != nil {
			return
		}
		if deadline < 0 {
			t.Fatalf("accepted a negative deadline %v", deadline)
		}
		d := doc.toDelta()
		if len(d.AddNets) != len(doc.AddNets) || len(d.RemoveNets) != len(doc.RemoveNets) ||
			len(d.GroupAdd) != len(doc.GroupAdd) || len(d.GroupRemove) != len(doc.GroupRemove) ||
			len(d.EdgeBias) != len(doc.EdgeBias) {
			t.Fatalf("toDelta changed the edit counts: %+v -> %+v", doc, d)
		}
		once, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var again DeltaDoc
		if err := json.Unmarshal(once, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", once, err)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("delta body does not round-trip: %s vs %s", once, twice)
		}
	})
}

// FuzzJobStatus feeds arbitrary bytes through the JSON decoding the client
// runs on every status poll and event frame, Response.UnmarshalJSON
// included: the coordinator trusts what its backends send. Decoding must
// never panic, and a status or event it accepts must re-encode to bytes
// that decode and re-encode to themselves.
func FuzzJobStatus(f *testing.F) {
	in := tinySubmitInstance(f)
	resp, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 1})
	if err != nil {
		f.Fatal(err)
	}
	sum, err := solutionDigest(resp.Solution)
	if err != nil {
		f.Fatal(err)
	}
	st, err := json.Marshal(&JobStatus{
		ID: "j1", State: StateDone, Mode: "iterative", Bench: in.Name, NumEdges: in.G.NumEdges(),
		Events: 4, Response: resp, Telemetry: &Telemetry{SolutionSHA256: sum},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(st)
	f.Add([]byte(`{"seq":3,"type":"lr","round":1,"iter":2,"z":1.5,"lb":1.25}`))
	f.Add([]byte(`{"seq":9,"type":"done","state":"failed","error":"boom"}`))
	f.Add([]byte(`{"id":"j2","state":"done","response":{"mode":"single","times":{"route_ms":1.001,"lr_ms":1e300,"legal_refine_ms":-1},"degraded":{"stage":"lr","cause":""}}}`))
	f.Add([]byte(`{"state":"done","response":{"schema_version":3,"mode":"single"}}`))
	f.Add([]byte(`{"response":{"mode":"bogus"},"telemetry":{"solution_sha256":""}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip[JobStatus](t, data)
		fuzzRoundTrip[Event](t, data)
	})
}

// fuzzRoundTrip decodes data as a T and, if that is accepted, checks that
// the value re-encodes and that the encoding is a fixed point of decode and
// re-encode.
func fuzzRoundTrip[T any](t *testing.T, data []byte) {
	var v T
	if json.Unmarshal(data, &v) != nil {
		return
	}
	once, err := json.Marshal(&v)
	if err != nil {
		t.Fatalf("accepted %q as %T but cannot re-encode it: %v", data, v, err)
	}
	var again T
	if err := json.Unmarshal(once, &again); err != nil {
		t.Fatalf("re-decoding %s as %T: %v", once, again, err)
	}
	twice, err := json.Marshal(&again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("%T does not round-trip:\n once: %s\ntwice: %s", v, once, twice)
	}
}
