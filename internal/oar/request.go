package oar

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

// AllNodes requests every node matching the segment's expression (used by
// hardware-centric tests that need a whole cluster, slide 16).
const AllNodes = -1

// Segment is one resource demand: N nodes matching an expression.
type Segment struct {
	Expr  Expr
	Nodes int // AllNodes for "every matching node"
	raw   string

	// anchorKey/anchorVal cache the narrowing constraint extracted from
	// Expr at parse time ("cluster"/"site"/"host" equality, or empty), so
	// the allocator can scan just the anchored subset of the testbed.
	anchorKey, anchorVal string
}

// Anchor returns the segment's parse-time narrowing constraint: a
// ("cluster"|"site"|"host", value) pair every matching node must satisfy,
// or ("", "") when the expression carries none. The allocator uses it to
// scan one cluster or site instead of the whole testbed; the federated
// gateway uses it to route a submission to the shard owning the anchored
// site.
func (s Segment) Anchor() (key, val string) { return s.anchorKey, s.anchorVal }

func (s Segment) String() string { return string(s.appendTo(nil)) }

// appendTo appends the segment as String prints it.
func (s Segment) appendTo(b []byte) []byte {
	if s.raw != "" {
		b = append(append(b, s.raw...), '/')
	}
	b = append(b, "nodes="...)
	if s.Nodes == AllNodes {
		return append(b, "ALL"...)
	}
	return strconv.AppendInt(b, int64(s.Nodes), 10)
}

// Request is a full oarsub -l resource request, e.g.
//
//	cluster='a' and gpu='YES'/nodes=1+cluster='b' and eth10g='Y'/nodes=2,walltime=2
type Request struct {
	Segments []Segment
	Walltime simclock.Time
}

func (r Request) String() string {
	return string(appendWalltime(appendSegments(nil, r.Segments), r.Walltime))
}

// appendSegments appends the segments joined by "+", the part of
// Request.String before the walltime.
func appendSegments(b []byte, segs []Segment) []byte {
	for i, s := range segs {
		if i > 0 {
			b = append(b, '+')
		}
		b = s.appendTo(b)
	}
	return b
}

// appendWalltime appends ",walltime=H:MM:SS", the part of Request.String
// after the segments.
func appendWalltime(b []byte, w simclock.Time) []byte {
	secs := int64(w.Duration().Seconds())
	b = strconv.AppendInt(append(b, ",walltime="...), secs/3600, 10)
	for _, v := range [2]int64{secs / 60 % 60, secs % 60} {
		b = append(b, ':')
		if 0 <= v && v < 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// ParseRequest parses the oarsub -l syntax. Walltime accepts either plain
// hours ("2") or "H:MM" / "H:MM:SS". A missing walltime defaults to 1 hour,
// like OAR.
func ParseRequest(s string) (Request, error) {
	req := Request{Walltime: simclock.Hour}
	body := s
	if i := strings.LastIndex(s, ",walltime="); i >= 0 {
		body = s[:i]
		w, err := parseWalltime(s[i+len(",walltime="):])
		if err != nil {
			return Request{}, err
		}
		req.Walltime = w
	}
	if strings.TrimSpace(body) == "" {
		return Request{}, fmt.Errorf("oar: empty resource request %q", s)
	}
	for _, part := range strings.Split(body, "+") {
		seg, err := parseSegment(part)
		if err != nil {
			return Request{}, err
		}
		req.Segments = append(req.Segments, seg)
	}
	return req, nil
}

// PinnedToSite returns a copy of the request in which every unanchored
// segment is additionally constrained to the named site (site='X' AND
// expr) and re-anchored, so the allocator scans only that site's nodes.
// Already-anchored segments pass through unchanged — callers are expected
// to have validated that those anchors fall within the site (the
// federated gateway's site-scoped submit route does exactly that).
func (r Request) PinnedToSite(site string) Request {
	out := Request{Walltime: r.Walltime, Segments: append([]Segment(nil), r.Segments...)}
	for i, seg := range out.Segments {
		if seg.anchorKey != "" {
			continue
		}
		pin := cmpExpr{key: "site", op: "=", val: site}
		e := Expr(pin)
		raw := pin.String()
		if _, always := seg.Expr.(trueExpr); !always {
			// Parenthesize the original expression: it may contain OR.
			e = andExpr{pin, seg.Expr}
			raw = raw + " and (" + seg.raw + ")"
		}
		out.Segments[i] = Segment{Expr: e, Nodes: seg.Nodes, raw: raw,
			anchorKey: "site", anchorVal: site}
	}
	return out
}

// ClusterRequest builds "cluster='name'/nodes=N,walltime=W" (nodes may be
// AllNodes) without the parser. It equals ParseRequest of that string for a
// name that needs no quoting and a walltime of whole seconds.
func ClusterRequest(cluster string, nodes int, walltime simclock.Time) Request {
	e := newCmpExpr("cluster", "=", cluster)
	return Request{Walltime: walltime, Segments: []Segment{{Expr: e, Nodes: nodes,
		raw: e.String(), anchorKey: "cluster", anchorVal: cluster}}}
}

// MustParseRequest is ParseRequest for requests known valid at compile time.
func MustParseRequest(s string) Request {
	r, err := ParseRequest(s)
	if err != nil {
		panic(err)
	}
	return r
}

func parseSegment(s string) (Segment, error) {
	exprPart, nodesPart := "", s
	if i := strings.LastIndex(s, "/"); i >= 0 {
		exprPart, nodesPart = s[:i], s[i+1:]
	}
	nodesPart = strings.TrimSpace(nodesPart)
	if !strings.HasPrefix(nodesPart, "nodes=") {
		return Segment{}, fmt.Errorf("oar: segment %q lacks nodes=N", s)
	}
	nStr := strings.TrimPrefix(nodesPart, "nodes=")
	var n int
	if strings.EqualFold(nStr, "ALL") {
		n = AllNodes
	} else {
		v, err := strconv.Atoi(nStr)
		if err != nil || v <= 0 {
			return Segment{}, fmt.Errorf("oar: bad node count %q in segment %q", nStr, s)
		}
		n = v
	}
	e, err := ParseExpr(exprPart)
	if err != nil {
		return Segment{}, err
	}
	ak, av := anchor(e)
	return Segment{Expr: e, Nodes: n, raw: strings.TrimSpace(exprPart),
		anchorKey: ak, anchorVal: av}, nil
}

// maxWalltimeHours (a century) keeps every walltime field inside a Time.
const maxWalltimeHours = 1e6

func parseWalltime(s string) (simclock.Time, error) {
	s = strings.TrimSpace(s)
	parts := strings.Split(s, ":")
	switch len(parts) {
	case 1:
		// Whole seconds, as String prints them; the bounds keep NaN out too.
		h, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || !(h*3600 >= 1 && h <= maxWalltimeHours) {
			return 0, fmt.Errorf("oar: bad walltime %q", s)
		}
		return simclock.Time(h*3600) * simclock.Second, nil
	case 2, 3:
		var total simclock.Time
		units := []simclock.Time{simclock.Hour, simclock.Minute, simclock.Second}
		for i, p := range parts {
			v, err := strconv.Atoi(p)
			if err != nil || v < 0 || v > maxWalltimeHours {
				return 0, fmt.Errorf("oar: bad walltime %q", s)
			}
			total += simclock.Time(v) * units[i]
		}
		if total <= 0 {
			return 0, fmt.Errorf("oar: zero walltime %q", s)
		}
		return total, nil
	}
	return 0, fmt.Errorf("oar: bad walltime %q", s)
}

// propertyKeys lists the properties OAR serves for every node.
var propertyKeys = [...]string{"cluster", "site", "host", "cores", "ram_gb",
	"gpu", "ib", "eth10g", "disktype", "cpu_model"}

// Property returns one OAR property of a node, derived from its live
// inventory: the Reference API fills the OAR database on a real testbed
// (slide 7); here the live inventory plays that role. ok is false for a
// key OAR does not serve. It is Properties(n)[key] without the map.
func Property(n *testbed.Node, key string) (val string, ok bool) {
	str, num, isNum, ok := nodeProperty(n, key)
	if isNum {
		str = strconv.Itoa(num)
	}
	return str, ok
}

// yesNo renders a boolean property the Grid'5000 way ("YES"/"NO").
func yesNo(b bool) string {
	if b {
		return "YES"
	}
	return "NO"
}

// yn renders a boolean property in the short form ("Y"/"N").
func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

func diskType(n *testbed.Node) string {
	if len(n.Inv.Disks) == 0 {
		return "none"
	}
	if n.Inv.Disks[0].SSD() {
		return "SSD"
	}
	return "HDD"
}
