package oar

// Best-effort jobs, as on the real Grid'5000: opportunistic jobs that run
// on idle resources and are killed whenever a normal job needs their nodes.
// They matter to the testing framework because a testbed full of
// best-effort work still looks "available" to tests — the scheduler's
// availability probe and the immediate-submission path both see through
// them via preemption.

import (
	"slices"

	"repro/internal/testbed"
)

// Preempted marks a best-effort job killed to make room for a normal job.
const Preempted JobState = 100

// BestEffort reports whether the job was submitted in best-effort mode.
func (j *Job) BestEffort() bool { return j.bestEffort }

// heldByBestEffort reports whether the job on a busy node is best-effort.
func (s *Server) heldByBestEffort(node string) bool {
	_, ok := s.preemptable[node]
	return ok
}

// allocateWithPreemption finds nodes for a request to start on right now.
// While best-effort jobs run, a request that may preempt also sees the
// nodes they hold, behind the free ones — when the free nodes suffice the
// choice is the plain one — and gets back the best-effort job IDs that
// must die for the allocation to succeed, in order of their first chosen
// node. It does not mutate anything.
func (s *Server) allocateWithPreemption(req Request, mayPreempt bool) (nodes []string, victims []int, ok bool) {
	preempting := mayPreempt && len(s.preemptable) > 0
	nodes, ok = s.allocate(req, preempting)
	if !ok || !preempting {
		return nodes, nil, ok
	}
	for _, node := range nodes {
		if jobID, held := s.preemptable[node]; held && !slices.Contains(victims, jobID) {
			victims = append(victims, jobID)
		}
	}
	return nodes, victims, true
}

// PreemptedCount returns how many best-effort jobs were killed.
func (s *Server) PreemptedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.preempted
}

// startWithPreemption allocates nodes for a waiting job, killing the
// best-effort jobs in its way (best-effort never preempts anyone).
func (s *Server) startWithPreemption(j *Job) ([]string, bool) {
	nodes, victims, ok := s.allocateWithPreemption(j.Request, !j.bestEffort)
	for _, id := range victims {
		s.endJob(s.jobs[id], Preempted)
		s.preempted++
	}
	return nodes, ok
}

// FreeOrPreemptable counts nodes that a normal request could use right now:
// free Alive nodes plus those held only by best-effort jobs.
func (s *Server) FreeOrPreemptable(e Expr) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	count := 0
	for _, n := range s.nodeList {
		if n.State != testbed.Alive {
			continue
		}
		if _, used := s.busy[n.Name]; used && !s.heldByBestEffort(n.Name) {
			continue
		}
		if e.EvalNode(n) {
			count++
		}
	}
	return count
}
