package oar

// Best-effort jobs, as on the real Grid'5000: opportunistic jobs that run
// on idle resources and are killed whenever a normal job needs their nodes.
// They matter to the testing framework because a testbed full of
// best-effort work still looks "available" to tests — the scheduler's
// availability probe and the immediate-submission path both see through
// them via preemption.

import "slices"

// Preempted marks a best-effort job killed to make room for a normal job.
const Preempted JobState = 100

// allocateWithPreemption finds nodes for a request to start on right now.
// While best-effort jobs run, a request that may preempt also sees the
// nodes they hold, behind the free ones — when the free nodes suffice the
// choice is the plain one — and gets back the best-effort job IDs that
// must die for the allocation to succeed, in order of their first chosen
// node. It does not mutate anything; the nodes are allocate's scratch.
func (s *Server) allocateWithPreemption(req Request, mayPreempt bool) (nodes []int32, victims []int, ok bool) {
	preempting := mayPreempt && s.spans[0].held > 0
	nodes, ok = s.allocate(req, preempting)
	if !ok || !preempting {
		return nodes, nil, ok
	}
	for _, o := range nodes {
		if id := s.busy[o]; s.preemptable[o] && !slices.Contains(victims, id) {
			victims = append(victims, id)
		}
	}
	return nodes, victims, true
}

// startWithPreemption allocates nodes for a waiting job, killing the
// best-effort jobs in its way (best-effort never preempts anyone).
func (s *Server) startWithPreemption(j *Job) ([]int32, bool) {
	nodes, victims, ok := s.allocateWithPreemption(j.Request, !j.bestEffort)
	for _, id := range victims {
		s.endJob(s.jobs[id], Preempted)
	}
	return nodes, ok
}
