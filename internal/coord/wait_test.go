package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"tdmroute/internal/serve"
)

// longPoll issues GET /v1/jobs/{id}?wait=1 against the coordinator.
func longPoll(t *testing.T, c *serve.Client, id string) *serve.JobStatus {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll %s: status %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// TestCoordinatorLongPoll: the coordinator answers ?wait=1 with the
// verified terminal status, for a job re-dispatched after its backend died
// mid-LR and for an identical resubmission answered from the cache.
func TestCoordinatorLongPoll(t *testing.T) {
	in := testInstance(t)
	bcfg := serve.Config{Workers: 2}
	sub := serve.SubmitRequest{Instance: in}
	refFinal, _, refEvents := reference(t, bcfg, sub)
	lrTotal := 0
	for _, e := range refEvents {
		if e.Type == "lr" {
			lrTotal++
		}
	}
	if lrTotal < 2 {
		t.Fatalf("reference run emitted %d LR events; the kill needs at least 2", lrTotal)
	}

	f := startFleet(t, 2, bcfg)
	co, c := startCoord(t, f, nil)
	v := f.victim(t, co, sub)
	f.gates[v].KillAfterLR(lrTotal / 2)

	ctx := context.Background()
	st, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	final := longPoll(t, c, st.ID)
	if final.State != serve.StateDone || final.Response == nil || final.Telemetry == nil {
		t.Fatalf("re-dispatched job: long-poll answered state %s, error %q", final.State, final.Error)
	}
	if !f.gates[v].Dead() {
		t.Fatal("kill gate never fired; the job was not re-dispatched")
	}
	if final.Backend != f.names[1-v] {
		t.Fatalf("job finished on %q, want the surviving backend %q", final.Backend, f.names[1-v])
	}
	if final.Telemetry.SolutionSHA256 != refFinal.Telemetry.SolutionSHA256 {
		t.Fatal("re-dispatched job's digest differs from an uninterrupted run")
	}
	if final.Events != len(refEvents) {
		t.Fatalf("re-dispatched job logged %d events, an uninterrupted run %d", final.Events, len(refEvents))
	}

	hit, err := c.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	cached := longPoll(t, c, hit.ID)
	if cached.State != serve.StateDone || cached.Backend != "cache" {
		t.Fatalf("resubmission: long-poll answered state %s on %q, want done from the cache", cached.State, cached.Backend)
	}
	if cached.Telemetry == nil || cached.Telemetry.SolutionSHA256 != refFinal.Telemetry.SolutionSHA256 {
		t.Fatal("cache hit's digest differs from an uninterrupted run")
	}
}
