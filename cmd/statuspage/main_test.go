package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testbed"
)

// TestServeDrainsInFlightRequests: serve answers the status page, and
// cancelling its context (what SIGINT and SIGTERM do) closes the listener
// at once but lets a request already in flight finish with its full answer
// before serve returns.
func TestServeDrainsInFlightRequests(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Spec = testbed.DefaultSpec[:2]
	f := core.New(cfg)
	f.Start()
	mux := newMux(f)
	entered, release := make(chan struct{}), make(chan struct{})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained") //nolint:errcheck
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, mux) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/")
	if err != nil {
		t.Fatalf("GET / while serving: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}

	type answer struct {
		code int
		body string
		err  error
	}
	slow := make(chan answer, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slow <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		slow <- answer{resp.StatusCode, string(body), err}
	}()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the slow request never reached its handler")
	}

	cancel()
	closed := time.Now().Add(30 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(closed) {
			t.Fatal("the listener still accepts after shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a request in flight", err)
	default:
	}

	close(release)
	select {
	case a := <-slow:
		if a.err != nil || a.code != http.StatusOK || a.body != "drained" {
			t.Fatalf("the in-flight request got %d %q (err %v), want 200 \"drained\"", a.code, a.body, a.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the in-flight request never finished")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after a clean shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after its last request finished")
	}
}
