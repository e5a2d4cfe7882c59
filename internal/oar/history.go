package oar

// Finished jobs are records, not objects. A campaign submits jobs by the
// hundred thousand and oarstat (JobsInfo) must still answer for every one,
// but a *Job — its strings, node slice, request and walltime event — is
// what the collector would re-mark on every cycle for the rest of the run.
// So a job that ends (Terminated, Canceled, Preempted) leaves the server's
// tables for a record with no pointer in it, in chunks the collector never
// scans; whoever submitted it keeps a valid *Job of its own.

import (
	"repro/internal/simclock"
	"repro/internal/testbed"
)

const (
	recordChunk = 1024    // records per chunk
	nodeChunk   = 1 << 14 // node ordinals per chunk, at least
)

// record is a finished job's externally visible state: user and request as
// indexes into the history's intern tables, nodes as a run of ordinals in
// one of its node chunks.
type record struct {
	user, request                 int32
	nodeChunk, nodeOff, nodeCount int32
	state                         uint8 // a JobState; 0 (Waiting) marks no record
	walltime                      simclock.Time
	submitted, started, ended     simclock.Time
}

// history holds the records of every finished job of a server. Job id's
// record is at records[(id-1)/recordChunk][(id-1)%recordChunk]; neither
// chunk list copies its chunks when it grows.
type history struct {
	records  [][]record
	nodes    [][]int32
	users    internTable
	requests internTable // segments as Request.String prints them, walltime apart
	buf      []byte
}

// add records the finished job j and returns the node ordinals recorded for
// it, looked up by name in ordinal.
func (h *history) add(j *Job, ordinal map[string]int32) []int32 {
	c, i := (j.ID-1)/recordChunk, (j.ID-1)%recordChunk
	for len(h.records) <= c {
		h.records = append(h.records, make([]record, recordChunk))
	}
	h.buf = appendSegments(h.buf[:0], j.Request.Segments)
	r := &h.records[c][i]
	*r = record{
		user:      h.users.id(j.User),
		request:   h.requests.idBytes(h.buf),
		nodeCount: int32(len(j.Nodes)),
		state:     uint8(j.State),
		walltime:  j.Request.Walltime,
		submitted: j.SubmittedAt,
		started:   j.StartedAt,
		ended:     j.EndedAt,
	}
	if len(j.Nodes) == 0 {
		return nil
	}
	last := len(h.nodes) - 1
	if last < 0 || cap(h.nodes[last])-len(h.nodes[last]) < len(j.Nodes) {
		h.nodes = append(h.nodes, make([]int32, 0, max(nodeChunk, len(j.Nodes))))
		last++
	}
	chunk := h.nodes[last]
	r.nodeChunk, r.nodeOff = int32(last), int32(len(chunk))
	for _, name := range j.Nodes {
		chunk = append(chunk, ordinal[name])
	}
	h.nodes[last] = chunk
	return chunk[r.nodeOff:]
}

// get returns job id's record, or nil when the job is unknown or has not
// finished.
func (h *history) get(id int) *record {
	if id < 1 || (id-1)/recordChunk >= len(h.records) {
		return nil
	}
	if r := &h.records[(id-1)/recordChunk][(id-1)%recordChunk]; r.state != uint8(Waiting) {
		return r
	}
	return nil
}

// info is the JobInfo of job id, finished as r records, exactly as
// jobInfoLocked read it from the job.
func (h *history) info(id int, r *record, nodes []*testbed.Node) JobInfo {
	info := JobInfo{
		ID:             id,
		User:           h.users.strs[r.user],
		Request:        h.requests.strs[r.request] + string(appendWalltime(h.buf[:0], r.walltime)),
		State:          JobState(r.state).String(),
		SubmittedAtSec: r.submitted.Seconds(),
		StartedAtSec:   r.started.Seconds(),
		EndedAtSec:     r.ended.Seconds(),
	}
	if r.nodeCount > 0 {
		info.Nodes = make([]string, r.nodeCount)
		for i, o := range h.nodes[r.nodeChunk][r.nodeOff : r.nodeOff+r.nodeCount] {
			info.Nodes[i] = nodes[o].Name
		}
	}
	return info
}

// internTable numbers distinct strings in order of first sight.
type internTable struct {
	index map[string]int32
	strs  []string
}

func (t *internTable) id(s string) int32 {
	if k, ok := t.index[s]; ok {
		return k
	}
	return t.add(s)
}

// idBytes is id(string(b)), allocating only for a string not seen before.
func (t *internTable) idBytes(b []byte) int32 {
	if k, ok := t.index[string(b)]; ok {
		return k
	}
	return t.add(string(b))
}

func (t *internTable) add(s string) int32 {
	if t.index == nil {
		t.index = map[string]int32{}
	}
	k := int32(len(t.strs))
	t.index[s] = k
	t.strs = append(t.strs, s)
	return k
}
