package coord

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
)

// rawDo issues one HTTP request and returns the response with its body
// read and closed.
func rawDo(t *testing.T, method, url string, header map[string]string, body io.Reader) (*http.Response, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp, string(b)
}

// TestHTTPContract runs one table of HTTP contract checks against a bare
// tdmroutd server and against a coordinator in front of one: clients
// cannot tell the tiers apart, so both must answer every request with the
// same status code and headers.
func TestHTTPContract(t *testing.T) {
	in := testInstance(t)
	var text strings.Builder
	if err := problem.WriteInstance(&text, in); err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name  string
		start func(t *testing.T) (base string, shutdown func(context.Context) error)
	}{
		{"tdmroutd", func(t *testing.T) (string, func(context.Context) error) {
			f := startFleet(t, 1, serve.Config{Workers: 1})
			return f.urls[0], f.servers[0].Shutdown
		}},
		{"tdmcoord", func(t *testing.T) (string, func(context.Context) error) {
			f := startFleet(t, 1, serve.Config{Workers: 1})
			co, c := startCoord(t, f, nil)
			return c.BaseURL, co.Shutdown
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			base, shutdown := tier.start(t)
			c := &serve.Client{BaseURL: base}
			ctx := context.Background()

			// A submission is answered 202 with the job's Location.
			resp, body := rawDo(t, http.MethodPost, base+"/v1/jobs?name=contract",
				map[string]string{"Content-Type": "text/plain"}, strings.NewReader(text.String()))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d (%s), want 202", resp.StatusCode, body)
			}
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatalf("submit reply: %v (%s)", err, body)
			}
			if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
				t.Fatalf("submit: Location %q, want /v1/jobs/%s", loc, st.ID)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("submit: Content-Type %q, want application/json", ct)
			}
			if _, err := c.Wait(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
			done := "/v1/jobs/" + st.ID
			// A job that stays in LR until cancelled.
			slow, err := c.Submit(ctx, serve.SubmitRequest{Instance: in, Epsilon: 1e-12, MaxIter: 2_000_000})
			if err != nil {
				t.Fatal(err)
			}
			unfinished := "/v1/jobs/" + slow.ID

			for _, tc := range []struct {
				name, method, path string
				lastEventID        string
				code               int
			}{
				{"status of an unknown id", http.MethodGet, "/v1/jobs/x9999999", "", http.StatusNotFound},
				{"events of an unknown id", http.MethodGet, "/v1/jobs/x9999999/events", "", http.StatusNotFound},
				{"solution of an unknown id", http.MethodGet, "/v1/jobs/x9999999/solution", "", http.StatusNotFound},
				{"cancel of an unknown id", http.MethodDelete, "/v1/jobs/x9999999", "", http.StatusNotFound},
				{"non-integer Last-Event-ID", http.MethodGet, done + "/events", "not-a-number", http.StatusBadRequest},
				{"solution of an unfinished job", http.MethodGet, unfinished + "/solution", "", http.StatusConflict},
				{"unknown solution format", http.MethodGet, done + "/solution?format=xml", "", http.StatusBadRequest},
			} {
				header := map[string]string{}
				if tc.lastEventID != "" {
					header["Last-Event-ID"] = tc.lastEventID
				}
				resp, body := rawDo(t, tc.method, base+tc.path, header, nil)
				if resp.StatusCode != tc.code {
					t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.code)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s: Content-Type %q, want a JSON error body", tc.name, ct)
				}
			}

			// A resume cursor past the log replays nothing and closes.
			resp, body = rawDo(t, http.MethodGet, base+done+"/events", map[string]string{"Last-Event-ID": "1000000"}, nil)
			if resp.StatusCode != http.StatusOK || strings.Contains(body, "id:") {
				t.Errorf("cursor past the log: status %d, body %q; want 200 and no events", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				t.Errorf("event stream: Content-Type %q", ct)
			}

			sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
			defer cancel()
			if err := shutdown(sctx); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{"/v1/jobs", done + "/delta"} {
				resp, body := rawDo(t, http.MethodPost, base+path, nil, strings.NewReader("{}"))
				if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
					t.Errorf("POST %s after Shutdown: status %d, Retry-After %q (%s); want 503 with Retry-After",
						path, resp.StatusCode, resp.Header.Get("Retry-After"), body)
				}
			}
			if _, body := rawDo(t, http.MethodGet, base+"/healthz", nil, nil); body != "draining\n" {
				t.Errorf("healthz after Shutdown = %q, want draining", body)
			}
		})
	}
}

// exposedSeries reduces a text exposition to its series — name and label
// set, in order, without values — with the backend name made stable.
func exposedSeries(text, backend string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
			line = line[:sp]
		}
		b.WriteString(strings.ReplaceAll(line, backend, "BACKEND"))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsSeries pins the /metrics series of a quiescent tdmroutd and a
// quiescent tdmcoord in front of it — including the backend series the
// coordinator re-exports with a backend label — so neither tier can
// rename, drop or reorder a series unnoticed.
func TestMetricsSeries(t *testing.T) {
	f := startFleet(t, 1, serve.Config{Workers: 1})
	_, c := startCoord(t, f, nil)
	for _, tc := range []struct {
		golden string
		client *serve.Client
	}{
		{"testdata/tdmroutd.series", f.clients[0]},
		{"testdata/tdmcoord.series", c},
	} {
		text, err := tc.client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := exposedSeries(text, f.names[0]); got != string(want) {
			t.Errorf("%s: the exposed series changed; got:\n%s", tc.golden, got)
		}
	}
}

// TestCoordinatorShutdownHonorsDeadline is the regression test for a drain
// that forwarded its cancels without the caller's deadline: in front of a
// backend that accepts a job and then hangs on DELETE, Shutdown blocked for
// RequestTimeout per in-flight job whatever the drain budget was.
func TestCoordinatorShutdownHonorsDeadline(t *testing.T) {
	release := make(chan struct{})
	streaming := make(chan struct{}, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.JobStatus{ID: "j0000001", State: serve.StateQueued})
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			select {
			case streaming <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-r.Context().Done():
			}
		case r.Method == http.MethodDelete:
			select {
			case <-release:
			case <-r.Context().Done():
			}
		default:
			w.Write([]byte("ok\n"))
		}
	}))
	co, err := New(Config{
		Backends:       []string{backend.URL},
		ProbeInterval:  time.Hour,
		RequestTimeout: 10 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("final shutdown: %v", err)
		}
		ts.Close()
		backend.Close()
	})

	c := &serve.Client{BaseURL: ts.URL}
	if _, err := c.Submit(context.Background(), serve.SubmitRequest{Instance: testInstance(t)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-streaming:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never reached the backend's event stream")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = co.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown with a 200ms budget took %v: the forwarded cancel ignored the deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
}
