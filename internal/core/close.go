package core

import (
	"codb/internal/cq"
	"codb/internal/msg"
)

// The paper's per-link open/closed protocol (§3), layered over the
// Dijkstra–Scholten detector for early local completion and reporting:
//
//   - An exporting node closes an incoming link i once every outgoing link
//     relevant for i is closed (trivially so for nodes with no relevant
//     outgoing links) — there is nothing left that could produce new data
//     for i. It notifies the importer, which marks its outgoing link
//     closed, possibly cascading.
//   - Links on dependency cycles can never satisfy the condition locally;
//     they are force-closed when the initiator's detector fires, which
//     witnesses the paper's quiescence condition ("all query results did
//     not bring any new data").
//
// Close notifications are basic messages of the diffusing computation, so
// termination is only declared after every close has been delivered.

// handleLinkClose processes an exporter's notification that one of our
// outgoing links is closed for this session.
func (n *Node) handleLinkClose(from string, lc *msg.LinkClose) Result {
	var r Result
	s := n.getSession(lc.SID, msg.KindUpdate, from)
	n.ds.Received(lc.SID, from)
	if !s.done {
		if rs := n.rules[lc.RuleID]; rs != nil && rs.rule.Target == n.cfg.Self {
			s.outClosed[lc.RuleID] = true
			n.closeCheck(s, &r)
		}
	}
	n.flushDS(s, &r)
	return r
}

// closeCheck closes every incoming link whose relevant outgoing links are
// all closed, notifying the importers.
func (n *Node) closeCheck(s *session, r *Result) {
	if s.done {
		return
	}
	for {
		progressed := false
		for _, in := range n.incomingFor(s) {
			if s.inClosed[in.ID] {
				continue
			}
			// For update sessions the link must have done its initial
			// export; query links activate on request.
			if s.kind == msg.KindUpdate && !s.evaluated[in.ID] {
				continue
			}
			if !n.relevantAllClosed(s, in) {
				continue
			}
			s.inClosed[in.ID] = true
			s.rep.LinksClosedEarly++
			to := in.Target
			if s.kind != msg.KindUpdate {
				to = s.activeIncoming[in.ID]
			}
			r.send(to, &msg.LinkClose{SID: s.sid, RuleID: in.ID})
			n.ds.Sent(s.sid, to, 1)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// incomingFor returns the incoming links participating in the session.
func (n *Node) incomingFor(s *session) []*cq.Rule {
	if s.kind == msg.KindUpdate {
		return n.Incoming()
	}
	var out []*cq.Rule
	for id := range s.activeIncoming {
		if rule := n.ruleOf(s, id); rule != nil {
			out = append(out, rule)
		}
	}
	return out
}

// relevantAllClosed reports whether every outgoing link relevant for the
// incoming link is closed. For query sessions only requested outgoing links
// participate.
func (n *Node) relevantAllClosed(s *session, in *cq.Rule) bool {
	for _, o := range n.Outgoing() {
		if s.kind != msg.KindUpdate && !s.requestedOut[o.ID] {
			continue
		}
		if cq.DependsOn(in, o) && !s.outClosed[o.ID] {
			return false
		}
	}
	return true
}

// forceCloseAll closes any link still open when the session completes (the
// quiescence condition on cyclic dependencies).
func (n *Node) forceCloseAll(s *session) {
	for _, in := range n.incomingFor(s) {
		if !s.inClosed[in.ID] {
			s.inClosed[in.ID] = true
			s.rep.LinksClosedForced++
		}
	}
}
