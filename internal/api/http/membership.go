package httpapi

import (
	"fmt"
	"net/http"

	"codb/internal/cq"
)

// joinRequest is the /v1/membership/join body: a node asking to be admitted
// into the live network through the peer this gateway fronts.
type joinRequest struct {
	// Node is the joiner's network-unique name.
	Node string `json:"node"`
	// Addr is the joiner's dialable listen address (TCP deployments).
	Addr string `json:"addr"`
}

func (s *Server) handleMembershipJoin(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var req joinRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErr(w, r, err)
		return
	}
	if req.Node == "" {
		s.writeErr(w, r, fmt.Errorf("%w: join names no node", cq.ErrBadQuery))
		return
	}
	epoch, err := p.AdmitJoin(req.Node, req.Addr)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node": req.Node, "epoch": epoch, "admitted_by": p.Name(),
	})
}

// leaveRequest is the /v1/membership/leave body: a coordinated departure of
// the named node, announced on its behalf.
type leaveRequest struct {
	Node string `json:"node"`
}

func (s *Server) handleMembershipLeave(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var req leaveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErr(w, r, err)
		return
	}
	if req.Node == "" {
		s.writeErr(w, r, fmt.Errorf("%w: leave names no node", cq.ErrBadQuery))
		return
	}
	if err := p.RemoveNode(req.Node); err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node": req.Node, "removed": true, "removed_by": p.Name(),
	})
}
