package oar

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testbed"
)

func props(kv ...string) map[string]string {
	m := map[string]string{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func TestParseExprBasics(t *testing.T) {
	cases := []struct {
		expr  string
		props map[string]string
		want  bool
	}{
		{"cluster='taurus'", props("cluster", "taurus"), true},
		{"cluster='taurus'", props("cluster", "sol"), false},
		{"cluster!='taurus'", props("cluster", "sol"), true},
		{"gpu='YES'", props("gpu", "NO"), false},
		{"cores>8", props("cores", "12"), true},
		{"cores>8", props("cores", "8"), false},
		{"cores>=8", props("cores", "8"), true},
		{"cores<8", props("cores", "4"), true},
		{"cores<=4", props("cores", "4"), true},
		{"ram_gb=32", props("ram_gb", "32"), true},
		// numeric equality, not string equality
		{"ram_gb=32", props("ram_gb", "32.0"), true},
		{"cluster='a' and gpu='YES'", props("cluster", "a", "gpu", "YES"), true},
		{"cluster='a' and gpu='YES'", props("cluster", "a", "gpu", "NO"), false},
		{"cluster='a' or cluster='b'", props("cluster", "b"), true},
		{"not cluster='a'", props("cluster", "b"), true},
		{"not (cluster='a' or cluster='b')", props("cluster", "c"), true},
		{"(cluster='a' or cluster='b') and gpu='YES'", props("cluster", "b", "gpu", "YES"), true},
		// missing property never matches
		{"whatever='x'", props(), false},
		// case-insensitive keywords, double quotes
		{`cluster="a" AND gpu="YES"`, props("cluster", "a", "gpu", "YES"), true},
		// empty expression is always true
		{"", props(), true},
		{"   ", props("x", "y"), true},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.expr)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.expr, err)
			continue
		}
		if got := e.Eval(c.props); got != c.want {
			t.Errorf("%q on %v = %v, want %v", c.expr, c.props, got, c.want)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	// and binds tighter than or: a or b and c == a or (b and c)
	e := mustParseExpr("x='1' or x='2' and y='3'")
	if !e.Eval(props("x", "1")) {
		t.Error("x=1 should satisfy")
	}
	if e.Eval(props("x", "2", "y", "4")) {
		t.Error("x=2,y=4 should not satisfy")
	}
	if !e.Eval(props("x", "2", "y", "3")) {
		t.Error("x=2,y=3 should satisfy")
	}
}

func TestParseExprErrors(t *testing.T) {
	bad := []string{
		"cluster=",
		"cluster",
		"='a'",
		"cluster='a' and",
		"(cluster='a'",
		"cluster='a')",
		"cluster ! 'a'",
		"cluster='unterminated",
		"cluster='a' garbage='b'",
		"cluster@='a'",
	}
	for _, s := range bad {
		if _, err := ParseExpr(s); err == nil {
			t.Errorf("ParseExpr(%q) should fail", s)
		}
	}
}

// Property: String() of a parsed expression re-parses to an expression with
// identical evaluation on arbitrary property maps.
func TestExprStringRoundTripProperty(t *testing.T) {
	exprs := []string{
		"cluster='a'",
		"cluster='a' and gpu='YES'",
		"not (cluster='a' or cores>8)",
		"eth10g='Y' or (ib='YES' and cores>=12)",
		"",
	}
	f := func(cluster string, cores uint8, gpuYes bool) bool {
		p := props("cluster", strings.ToLower(cluster),
			"cores", string(rune('0'+cores%10)),
			"gpu", map[bool]string{true: "YES", false: "NO"}[gpuYes],
			"eth10g", "N", "ib", "NO")
		for _, s := range exprs {
			e1, err := ParseExpr(s)
			if err != nil {
				return false
			}
			e2, err := ParseExpr(e1.String())
			if err != nil {
				return false
			}
			if e1.Eval(p) != e2.Eval(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRequest(t *testing.T) {
	// The paper's slide-7 example, verbatim modulo typographic quotes.
	r, err := ParseRequest("cluster='a' and gpu='YES'/nodes=1+cluster='b' and eth10g='Y'/nodes=2,walltime=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(r.Segments))
	}
	if r.Segments[0].Nodes != 1 || r.Segments[1].Nodes != 2 {
		t.Fatalf("node counts = %d,%d", r.Segments[0].Nodes, r.Segments[1].Nodes)
	}
	if r.Walltime != 2*3600*1e9 {
		t.Fatalf("walltime = %v", r.Walltime)
	}
}

func TestParseRequestVariants(t *testing.T) {
	r := MustParseRequest("nodes=3")
	if len(r.Segments) != 1 || r.Segments[0].Nodes != 3 {
		t.Fatalf("bare nodes parse: %+v", r)
	}
	if r.Walltime.Duration().Hours() != 1 {
		t.Fatalf("default walltime = %v, want 1h", r.Walltime)
	}

	r = MustParseRequest("cluster='sol'/nodes=ALL,walltime=0:30")
	if r.Segments[0].Nodes != AllNodes {
		t.Fatal("ALL not parsed")
	}
	if r.Walltime.Duration().Minutes() != 30 {
		t.Fatalf("walltime = %v, want 30m", r.Walltime)
	}

	r = MustParseRequest("nodes=1,walltime=1:30:30")
	if got := r.Walltime.Duration().Seconds(); got != 5430 {
		t.Fatalf("walltime seconds = %v", got)
	}
}

func TestParseRequestErrors(t *testing.T) {
	bad := []string{
		"",
		",walltime=2",
		"nodes=0",
		"nodes=-2",
		"nodes=xyz",
		"cluster='a'/n=2",
		"cluster='a'/nodes=1,walltime=0",
		"cluster='a'/nodes=1,walltime=1:2:3:4",
		"cluster=('a'/nodes=1",
	}
	for _, s := range bad {
		if _, err := ParseRequest(s); err == nil {
			t.Errorf("ParseRequest(%q) should fail", s)
		}
	}
}

func TestRequestStringRoundTrip(t *testing.T) {
	in := "cluster='a' and gpu='YES'/nodes=1+eth10g='Y'/nodes=2,walltime=2:00:00"
	r1 := MustParseRequest(in)
	r2 := MustParseRequest(r1.String())
	if r1.Walltime != r2.Walltime || len(r1.Segments) != len(r2.Segments) {
		t.Fatalf("round trip mismatch: %v vs %v", r1, r2)
	}
	for i := range r1.Segments {
		if r1.Segments[i].Nodes != r2.Segments[i].Nodes {
			t.Fatal("segment node counts diverged")
		}
	}
}

func TestProperties(t *testing.T) {
	tb := testbed.Default()
	p := properties(tb.Node("orion-1.lyon"))
	if p["cluster"] != "orion" || p["site"] != "lyon" {
		t.Fatalf("identity props: %v", p)
	}
	if p["gpu"] != "YES" {
		t.Errorf("orion gpu = %q", p["gpu"])
	}
	if p["cores"] != "12" {
		t.Errorf("orion cores = %q", p["cores"])
	}
	if p["disktype"] != "HDD" {
		t.Errorf("orion disktype = %q", p["disktype"])
	}
	p = properties(tb.Node("paravance-3.rennes"))
	if p["eth10g"] != "Y" || p["disktype"] != "SSD" {
		t.Errorf("paravance props: eth10g=%q disktype=%q", p["eth10g"], p["disktype"])
	}
	p = properties(tb.Node("taurus-1.lyon"))
	if p["ib"] != "YES" {
		t.Errorf("taurus ib = %q", p["ib"])
	}
}

// TestPropertyMatchesProperties holds the single-property accessor, the
// map form and an expression evaluated against the node to one answer for
// every property of one node per cluster.
func TestPropertyMatchesProperties(t *testing.T) {
	for _, cl := range testbed.Default().Clusters() {
		n := cl.Nodes[0]
		all := properties(n)
		if len(all) != len(propertyKeys) {
			t.Fatalf("%s: %d properties, want %d", n.Name, len(all), len(propertyKeys))
		}
		for _, key := range propertyKeys {
			got, ok := Property(n, key)
			if !ok || got != all[key] {
				t.Errorf("%s: Property(%q) = %q, %v; Properties has %q", n.Name, key, got, ok, all[key])
			}
			if e := (cmpExpr{key: key, op: "=", val: got}); !e.EvalNode(n) || !e.Eval(all) {
				t.Errorf("%s: %s does not hold", n.Name, e)
			}
		}
		if got, ok := Property(n, "color"); ok || got != "" {
			t.Errorf("%s: Property of an unserved key = %q, %v", n.Name, got, ok)
		}
		for _, op := range []string{"=", "!=", "<"} {
			if e := (cmpExpr{key: "color", op: op, val: "red"}); e.EvalNode(n) || e.Eval(all) {
				t.Errorf("%s: %s matched on an unserved key", n.Name, e)
			}
		}
	}
}

func mustParseExpr(s string) Expr {
	e, err := ParseExpr(s)
	if err != nil {
		panic(err)
	}
	return e
}

// properties builds the whole OAR property map of a node, one Property
// lookup per key.
func properties(n *testbed.Node) map[string]string {
	m := make(map[string]string, len(propertyKeys))
	for _, key := range propertyKeys {
		m[key], _ = Property(n, key)
	}
	return m
}
