package coord

import (
	"testing"
	"time"

	"tdmroute"
	"tdmroute/internal/serve"
)

// TestCacheKeySoundness pins what the coordinator's content address covers:
// every field that can change the solution changes the key, so a cached
// result is never served for a different problem, and the fields that only
// label or bound a job leave it alone, so identical problems share a result.
func TestCacheKeySoundness(t *testing.T) {
	in := testInstance(t)
	routing := make(tdmroute.Routing, len(in.Nets))
	base := serve.SubmitRequest{Instance: in, Name: "a", Workers: 1, Routing: routing}
	baseKey := cacheKey(base)

	otherRouting := make(tdmroute.Routing, len(in.Nets))
	otherRouting[0] = []int{0}
	renamed := in.Clone()
	renamed.Name = "renamed"
	edited := in.Clone()
	edited.Groups = edited.Groups[:len(edited.Groups)-1]

	cases := []struct {
		name    string
		mut     func(*serve.SubmitRequest)
		changes bool
	}{
		{"mode", func(s *serve.SubmitRequest) { s.Mode = tdmroute.ModeIterative }, true},
		{"rounds", func(s *serve.SubmitRequest) { s.Rounds = 2 }, true},
		{"epsilon", func(s *serve.SubmitRequest) { s.Epsilon = 0.01 }, true},
		{"maxiter", func(s *serve.SubmitRequest) { s.MaxIter = 100 }, true},
		{"ripup", func(s *serve.SubmitRequest) { s.RipUp = 3 }, true},
		{"workers", func(s *serve.SubmitRequest) { s.Workers = 2 }, false},
		{"pow2", func(s *serve.SubmitRequest) { s.Pow2 = true }, true},
		{"partitions", func(s *serve.SubmitRequest) { s.Partitions = 3 }, true},
		{"routing", func(s *serve.SubmitRequest) { s.Routing = otherRouting }, true},
		{"instance content", func(s *serve.SubmitRequest) { s.Instance = edited }, true},
		{"instance name", func(s *serve.SubmitRequest) { s.Instance = renamed }, false},
		{"job name", func(s *serve.SubmitRequest) { s.Name = "b" }, false},
		{"deadline", func(s *serve.SubmitRequest) { s.Deadline = time.Minute }, false},
		{"retain", func(s *serve.SubmitRequest) { s.Retain = true }, false},
		{"negative workers", func(s *serve.SubmitRequest) { s.Workers = -3 }, false},
	}
	for _, tc := range cases {
		sub := base
		tc.mut(&sub)
		if got := cacheKey(sub) != baseKey; got != tc.changes {
			t.Errorf("%s: key changed = %v, want %v", tc.name, got, tc.changes)
		}
	}
}

// cacheKey is the content address contentKey gives sub.
func cacheKey(sub serve.SubmitRequest) string {
	_, key := contentKey(sub)
	return key
}
