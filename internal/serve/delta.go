package serve

import (
	"net/http"
	"time"

	"tdmroute"
)

// DeltaDoc is the wire form of a tdmroute.Delta, posted as JSON to
// /v1/jobs/{id}/delta. The target id names a finished job submitted with
// retain=1; its warm solver session is node-resident, so delta jobs are
// pinned to the server that solved the base job.
type DeltaDoc struct {
	AddNets     []DeltaNetDoc  `json:"add_nets,omitempty"`
	RemoveNets  []int          `json:"remove_nets,omitempty"`
	GroupAdd    []GroupEditDoc `json:"group_add,omitempty"`
	GroupRemove []GroupEditDoc `json:"group_remove,omitempty"`
	EdgeBias    []EdgeBiasDoc  `json:"edge_bias,omitempty"`
}

// DeltaNetDoc is one net added by a delta.
type DeltaNetDoc struct {
	Terminals []int `json:"terminals"`
	Groups    []int `json:"groups,omitempty"`
}

// GroupEditDoc adds or removes one net from one NetGroup.
type GroupEditDoc struct {
	Group int `json:"group"`
	Net   int `json:"net"`
}

// EdgeBiasDoc adjusts the phantom congestion of one FPGA-graph edge.
type EdgeBiasDoc struct {
	Edge  int `json:"edge"`
	Delta int `json:"delta"`
}

// toDelta converts the wire form to the solver's delta.
func (d *DeltaDoc) toDelta() *tdmroute.Delta {
	out := &tdmroute.Delta{RemoveNets: d.RemoveNets}
	for _, n := range d.AddNets {
		out.AddNets = append(out.AddNets, tdmroute.Net{Terminals: n.Terminals, Groups: n.Groups})
	}
	for _, ge := range d.GroupAdd {
		out.GroupAdd = append(out.GroupAdd, tdmroute.GroupEdit{Group: ge.Group, Net: ge.Net})
	}
	for _, ge := range d.GroupRemove {
		out.GroupRemove = append(out.GroupRemove, tdmroute.GroupEdit{Group: ge.Group, Net: ge.Net})
	}
	for _, eb := range d.EdgeBias {
		out.EdgeBias = append(out.EdgeBias, tdmroute.EdgeBiasEdit{Edge: eb.Edge, Delta: eb.Delta})
	}
	return out
}

// Delta queues a ModeDelta job over base's warm session, held exclusively
// until the job is terminal and then released (or, after a poisoning
// failure, dropped). It refuses with 409 while another delta holds the
// session and 410 when the session is gone (never retained, evicted, or
// dropped).
func (s *Server) Delta(base Job, doc DeltaDoc, deadline time.Duration) (Job, error) {
	baseID := base.jobLog().id
	h, found, busy := s.warm.acquire(baseID)
	if busy {
		s.metrics.warmConflict.Add(1)
		return nil, Errorf(http.StatusConflict, "another delta is running on job %s's warm session", baseID)
	}
	if !found {
		return nil, Errorf(http.StatusGone, "job %s has no warm session (submit with retain=1; sessions can be evicted or dropped)", baseID)
	}

	req := tdmroute.Request{
		Instance: h.Instance(),
		Mode:     tdmroute.ModeDelta,
		Base:     h,
		Delta:    doc.toDelta(),
		Options:  s.cfg.SolveOptions,
	}
	j, err := s.submit(req, deadline, func(j *job) {
		j.baseID = baseID
		j.onFinish = func() {
			if h.Err() != nil {
				// The failure left the session mid-patch; it has no legal
				// topology to offer, so it is dropped rather than reused.
				s.warm.drop(baseID)
				s.metrics.warmDropped.Add(1)
				s.Logf("job %s: warm session of %s dropped: %v", j.id, baseID, h.Err())
			} else {
				s.warm.release(baseID)
			}
		}
	})
	if err != nil {
		s.warm.release(baseID)
		return nil, err
	}
	return j, nil
}
