package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// TestServeShutsDownWithItsLiveDriver: serve answers requests while the
// live driver steps the campaign, and cancelling its context (what SIGINT
// and SIGTERM do) makes it return with the listener closed and the driver
// gone — the campaign's clock stands where serve left it.
func TestServeShutsDownWithItsLiveDriver(t *testing.T) {
	fed := federation.New(federation.Config{Spec: testbed.DefaultSpec[:2]})
	fed.Start()
	gw := gateway.ForFederation(fed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, gw, simclock.Minute) }()

	url := "http://" + ln.Addr().String() + "/metrics"
	deadline := time.Now().Add(30 * time.Second)
	for fed.Now() == 0 {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET /metrics while serving: %v", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics = %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("the live driver never stepped the campaign")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after a clean shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after its context was cancelled")
	}
	stopped := fed.Now()
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("the listener still accepts after serve returned")
	}
	// Every live step passes each micro-shard's gate once.
	perShard := gw.AdvanceLockStats().Steps / int64(len(fed.Shards()))
	if simclock.Time(perShard)*simclock.Minute != stopped {
		t.Fatalf("%d live steps a shard, clock at %v: something else moved time", perShard, stopped)
	}
}

// TestCheckFlags: values no campaign can run with are refused before one is
// built — a -live campaign that would never move among them.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		scale, weeks, reliability int
		live                      bool
		step                      time.Duration
		ok                        bool
	}{
		{"defaults", 1, 2, 0, false, 10 * time.Minute, true},
		{"live", 16, 0, 3, true, time.Minute, true},
		{"a step that is not used", 1, 2, 0, false, 0, true},
		{"scale 0", 0, 2, 0, false, 10 * time.Minute, false},
		{"negative weeks", 1, -1, 0, false, 10 * time.Minute, false},
		{"negative reliability", 1, 2, -3, false, 10 * time.Minute, false},
		{"live standing still", 1, 2, 0, true, 0, false},
		{"live running backwards", 1, 2, 0, true, -time.Minute, false},
	} {
		if err := checkFlags(tc.scale, tc.weeks, tc.reliability, tc.live, tc.step); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
