package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/simclock"
)

// TestServeShutsDownWithItsLiveDriver: serve answers requests while the
// live driver steps the campaign, and cancelling its context (what SIGINT
// and SIGTERM do) makes it return with the listener closed and the driver
// gone — the campaign's clock stands where serve left it.
func TestServeShutsDownWithItsLiveDriver(t *testing.T) {
	f := core.New(core.DefaultConfig())
	f.Start()
	gw := gateway.ForFramework(f)
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
	for f.Clock.Now() == 0 {
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
	stopped := f.Clock.Now()
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("the listener still accepts after serve returned")
	}
	if got := gw.AdvanceLockStats().Steps; simclock.Time(got)*simclock.Minute != stopped {
		t.Fatalf("%d live steps, clock at %v: something else moved time", got, stopped)
	}
}
