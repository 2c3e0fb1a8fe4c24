package coord

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
)

// contentKey renders the submission's instance in canonical contest text
// once and returns those bytes, which the coordinator forwards to a backend
// as they are, and the submission's content address: SHA-256 over the same
// text, the mode, and the normalized solver-option tuple (and the fixed
// routing, for assign mode).
//
// What the key deliberately excludes defines what "identical" means:
//
//   - name: a label, never part of the solved problem. The text
//     serialization leads with a "# instance <name>" comment, so that header
//     line is left out of the hash — otherwise the same instance uploaded
//     under two names (or renamed by the server's default) would never hit.
//   - deadline: an upper bound on wall time. A deadline only changes the
//     result by degrading it, and degraded results are never cached, so two
//     submissions differing only in deadline share a (complete) result.
//   - retain: session placement, not problem content. Retained submissions
//     skip the cache lookup (they need a live warm session), but their
//     results still populate it for later identical plain submissions.
//   - workers: how many goroutines the solve runs on. The solver returns
//     identical bytes for every worker count, so submissions that differ
//     only in workers share a cache line.
//
// Partitions genuinely changes the routing, so distinct values must never
// share a cache line.
func contentKey(sub serve.SubmitRequest) (text []byte, key string) {
	// The serialization cannot fail on a validated instance, and a
	// hash.Hash never errors on Write.
	var buf bytes.Buffer
	problem.WriteInstance(&buf, sub.Instance)
	text = buf.Bytes()
	body := text
	if bytes.HasPrefix(body, []byte("# instance ")) {
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			body = body[nl+1:]
		}
	}
	h := sha256.New()
	h.Write(body)
	fmt.Fprintf(h, "|mode=%s|rounds=%d|epsilon=%g|maxiter=%d|ripup=%d|pow2=%t|partitions=%d",
		sub.Mode, sub.Rounds, sub.Epsilon, sub.MaxIter, sub.RipUp, sub.Pow2, sub.Partitions)
	if sub.Routing != nil {
		h.Write([]byte("|routing|"))
		problem.WriteRouting(h, sub.Routing)
	}
	return text, hex.EncodeToString(h.Sum(nil))
}

// place ranks the eligible backends by rendezvous (highest-random-weight)
// hashing over the job's content key and returns the best one not yet in
// failed. Consistency matters twice: identical submissions land on the node
// most likely to already hold related state (the result, a warm session),
// and a backend joining or leaving remaps only the keys it wins — there is
// no ring to rebalance. When every eligible backend has already failed this
// job, the best eligible one is returned anyway (the failure may have been
// transient); nil means no backend is eligible at all.
func (co *Coordinator) place(key string, failed map[string]bool) *backend {
	var best, bestFresh *backend
	var bestScore, bestFreshScore uint64
	for _, b := range co.backends {
		if !b.eligible() {
			continue
		}
		score := rendezvousScore(key, b.name)
		if best == nil || score > bestScore {
			best, bestScore = b, score
		}
		if !failed[b.name] && (bestFresh == nil || score > bestFreshScore) {
			bestFresh, bestFreshScore = b, score
		}
	}
	if bestFresh != nil {
		return bestFresh
	}
	return best
}

// rendezvousScore is the weight of one (key, node) pair.
func rendezvousScore(key, node string) uint64 {
	h := sha256.Sum256([]byte(key + "\x00" + node))
	return binary.BigEndian.Uint64(h[:8])
}
