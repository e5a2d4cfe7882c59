// Package kavlan simulates KaVLAN, Grid'5000's network isolation service
// (slide 8): users move their nodes into dedicated VLANs to protect the
// testbed from experiments, avoid network pollution, and build custom
// topologies. Reconfiguration works by changing switch VLAN membership, so
// it has almost no overhead.
//
// Four VLAN kinds exist, mirroring the paper's figure:
//
//   - the default VLAN: all nodes, routing between sites;
//   - local VLANs: isolated level-2 networks only accessible through an SSH
//     gateway attached to both networks;
//   - routed VLANs: separate level-2 networks reachable through routing;
//   - global VLANs: one level-2 network spanning all sites, no routing.
//
// The kavlan test family verifies both the reconfiguration operation and
// the reachability semantics.
package kavlan

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Kind classifies a VLAN.
type Kind int

const (
	// Default is the shared production VLAN with inter-site routing.
	Default Kind = iota
	// Local is an isolated site-level L2 network behind an SSH gateway.
	Local
	// Routed is a site-level L2 network reachable through routing.
	Routed
	// Global is a testbed-wide L2 network (no routing in or out).
	Global
)

func (k Kind) String() string {
	switch k {
	case Default:
		return "default"
	case Local:
		return "local"
	case Routed:
		return "routed"
	case Global:
		return "global"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// VLAN is one virtual network.
type VLAN struct {
	ID   int
	Kind Kind
	Site string // owning site for Local/Routed; "" for Default/Global
}

func (v *VLAN) String() string {
	if v.Site != "" {
		return fmt.Sprintf("vlan-%d (%s@%s)", v.ID, v.Kind, v.Site)
	}
	return fmt.Sprintf("vlan-%d (%s)", v.ID, v.Kind)
}

// DefaultID is the ID of the default VLAN.
const DefaultID = 1

// Manager tracks VLAN membership of every node. Reconfigurations take
// ReconfigTime of simulated time (small: the operation is a switch update).
type Manager struct {
	tb     *testbed.Testbed
	faults *faults.Injector

	vlans      map[int]*VLAN
	membership map[string]int // node → VLAN ID
}

// ReconfigTime is how long one VLAN change takes ("almost no overhead").
const ReconfigTime = 5 * simclock.Second

// NewManager creates the VLAN pool: the default VLAN, three local and three
// routed VLANs per site, and one global VLAN per site (Grid'5000's real
// allocation policy). All nodes start in the default VLAN.
func NewManager(tb *testbed.Testbed, inj *faults.Injector) *Manager {
	m := &Manager{
		tb:         tb,
		faults:     inj,
		vlans:      map[int]*VLAN{},
		membership: map[string]int{},
	}
	m.vlans[DefaultID] = &VLAN{ID: DefaultID, Kind: Default}
	id := DefaultID + 1
	for _, site := range tb.SiteNames() {
		for i := 0; i < 3; i++ {
			m.vlans[id] = &VLAN{ID: id, Kind: Local, Site: site}
			id++
		}
		for i := 0; i < 3; i++ {
			m.vlans[id] = &VLAN{ID: id, Kind: Routed, Site: site}
			id++
		}
		m.vlans[id] = &VLAN{ID: id, Kind: Global, Site: ""}
		id++
	}
	for _, n := range tb.Nodes() {
		m.membership[n.Name] = DefaultID
	}
	return m
}

// VLANs returns all VLANs sorted by ID.
func (m *Manager) VLANs() []*VLAN {
	out := make([]*VLAN, 0, len(m.vlans))
	for _, v := range m.vlans {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FindVLAN returns a VLAN of the given kind usable by the given site (any
// site for Global), or nil when the pool has none.
func (m *Manager) FindVLAN(kind Kind, site string) *VLAN {
	for _, v := range m.VLANs() {
		if v.Kind != kind {
			continue
		}
		if kind == Local || kind == Routed {
			if v.Site == site {
				return v
			}
			continue
		}
		return v
	}
	return nil
}

// VLANOf returns the VLAN a node currently belongs to.
func (m *Manager) VLANOf(node string) (*VLAN, error) {
	id, ok := m.membership[node]
	if !ok {
		return nil, fmt.Errorf("kavlan: unknown node %q", node)
	}
	return m.vlans[id], nil
}

// SetNodes moves nodes into the VLAN. Local and Routed VLANs only accept
// nodes of their own site. The call fails when the site's kavlan service is
// flaky. It returns the simulated duration of the reconfiguration.
func (m *Manager) SetNodes(vlanID int, nodes []string) (simclock.Time, error) {
	v, ok := m.vlans[vlanID]
	if !ok {
		return 0, fmt.Errorf("kavlan: unknown VLAN %d", vlanID)
	}
	for _, name := range nodes {
		n := m.tb.Node(name)
		if n == nil {
			return 0, fmt.Errorf("kavlan: unknown node %q", name)
		}
		if (v.Kind == Local || v.Kind == Routed) && n.Site != v.Site {
			return 0, fmt.Errorf("kavlan: node %s is at %s, VLAN %d belongs to %s",
				name, n.Site, vlanID, v.Site)
		}
		if m.faults != nil && m.faults.ServiceFails(n.Site, "kavlan") {
			return 0, fmt.Errorf("kavlan: reconfiguration failed at %s (service error)", n.Site)
		}
	}
	for _, name := range nodes {
		m.membership[name] = vlanID
	}
	return ReconfigTime, nil
}

// Reachable reports whether node a can open a connection to node b given
// current VLAN membership. The matrix follows the paper's figure:
//
//   - same VLAN: always reachable (level 2);
//   - default ↔ default: reachable across sites (backbone routing);
//   - routed ↔ default (either direction): reachable through routing;
//   - local VLANs: unreachable from anywhere else (SSH gateway is out of
//     band);
//   - global VLANs: level-2 among members only.
func (m *Manager) Reachable(a, b string) (bool, error) {
	va, err := m.VLANOf(a)
	if err != nil {
		return false, err
	}
	vb, err := m.VLANOf(b)
	if err != nil {
		return false, err
	}
	if va.ID == vb.ID {
		return true, nil
	}
	pair := func(x, y Kind) bool {
		return va.Kind == x && vb.Kind == y || va.Kind == y && vb.Kind == x
	}
	switch {
	case pair(Default, Default):
		return true, nil
	case pair(Default, Routed), pair(Routed, Routed):
		return true, nil
	default:
		// Any path touching a Local or Global VLAN (other than staying
		// inside it) is blocked.
		return false, nil
	}
}
