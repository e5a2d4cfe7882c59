package ci

// Matrix job support: expansion of axes into cell builds (Matrix Project
// plugin) and selective retry of failed cells (Matrix Reloaded plugin).

import "fmt"

// triggerMatrixLocked creates a parent build plus one cell build per axis
// combination. When onlyCells is non-nil, only cells whose key appears in
// it are built (Matrix Reloaded); the others are not re-run.
//
// Cell maps and their key strings are interned on the job (cellsLocked):
// every trigger shares the same read-only maps and strings, so expanding
// a 448-cell matrix allocates only the builds themselves.
func (s *Server) triggerMatrixLocked(j *Job, cause string, onlyCells map[string]bool) *Build {
	parent := s.newBuildLocked(j, cause, nil, 0)
	cells := j.cellsLocked()
	if onlyCells == nil {
		parent.CellBuilds = make([]int, 0, len(cells))
	}
	parent.aggResult = Success
	for i := range cells {
		mc := &cells[i]
		if onlyCells != nil && !onlyCells[mc.key] {
			continue
		}
		cb := s.newBuildLocked(j, cause, mc.values, parent.Number)
		cb.key, cb.serial = mc.key, mc.serial
		parent.CellBuilds = append(parent.CellBuilds, cb.Number)
		s.enqueueLocked(cb, j.Script)
	}
	parent.cellsPending = len(parent.CellBuilds)
	if parent.cellsPending == 0 {
		// Nothing to run (e.g. retry with no failed cells): complete the
		// parent immediately as a no-op success.
		parent.Result = Success
		parent.StartedAt = s.clock.Now()
		parent.EndedAt = s.clock.Now()
		parent.completed = true
		s.builtCount++
	}
	return parent
}

// maybeCompleteParentLocked rolls a finished cell up into its parent,
// completing the parent when it was the last one. The rollup is
// incremental — O(1) per cell instead of rescanning every sibling — with
// the parent accumulating the worst result and the start/end envelope as
// cells arrive. Returns the parent if it just completed, else nil. Caller
// holds s.mu.
func (s *Server) maybeCompleteParentLocked(cell *Build) *Build {
	j := s.jobs[cell.Job]
	if j == nil {
		return nil // job deleted mid-flight
	}
	parent := j.byNumber[cell.Parent]
	if parent == nil || parent.completed || parent.cellsPending == 0 {
		return nil // parent rotated out of retention; nothing to roll up
	}
	parent.aggResult = worse(parent.aggResult, cell.Result)
	if !parent.aggStarted || cell.StartedAt < parent.StartedAt {
		parent.StartedAt = cell.StartedAt
		parent.aggStarted = true
	}
	if cell.EndedAt > parent.EndedAt {
		parent.EndedAt = cell.EndedAt
	}
	parent.cellsPending--
	if parent.cellsPending > 0 {
		return nil
	}
	parent.Result = parent.aggResult
	parent.completed = true
	s.builtCount++
	return parent
}

// FailedCells returns the cell coordinates of a completed matrix build that
// did not succeed (both unstable and failed cells — the paper retries
// unstable configurations too, since they simply could not get resources).
func (s *Server) FailedCells(jobName string, parentNumber int) ([]map[string]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j := s.jobs[jobName]
	if j == nil {
		return nil, fmt.Errorf("ci: unknown job %q", jobName)
	}
	parent := j.byNumber[parentNumber]
	if parent == nil {
		return nil, fmt.Errorf("ci: no build %s#%d", jobName, parentNumber)
	}
	if !parent.completed {
		return nil, fmt.Errorf("ci: build %s#%d still running", jobName, parentNumber)
	}
	var out []map[string]string
	for _, num := range parent.CellBuilds {
		if b := j.byNumber[num]; b != nil && b.completed && b.Result != Success {
			out = append(out, b.Cell)
		}
	}
	return out, nil
}

// RetryFailedCells triggers a new matrix build re-running only the failed
// (non-success) cells of a previous build — Matrix Reloaded. The returned
// parent completes immediately with Success when nothing failed.
func (s *Server) RetryFailedCells(jobName string, parentNumber int, cause string) (*Build, error) {
	failed, err := s.FailedCells(jobName, parentNumber)
	if err != nil {
		return nil, err
	}
	only := make(map[string]bool, len(failed))
	for _, cell := range failed {
		only[cellKey(cell)] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[jobName]
	return s.triggerMatrixLocked(j, cause, only), nil
}

// expandAxes computes the cartesian product of axis values.
func expandAxes(axes []Axis) []map[string]string {
	out := []map[string]string{{}}
	for _, a := range axes {
		var next []map[string]string
		for _, base := range out {
			for _, v := range a.Values {
				cell := make(map[string]string, len(base)+1)
				for k, bv := range base {
					cell[k] = bv
				}
				cell[a.Name] = v
				next = append(next, cell)
			}
		}
		out = next
	}
	if len(axes) == 0 {
		return nil
	}
	return out
}
