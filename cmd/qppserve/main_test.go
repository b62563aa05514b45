package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestNewServerSetsEveryTimeout guards against a server that lets one
// slow client hold a connection open forever: every timeout must be set.
func TestNewServerSetsEveryTimeout(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s is %v, want > 0", name, d)
		}
	}
	if shutdownGrace <= 0 {
		t.Errorf("shutdownGrace is %v, want > 0", shutdownGrace)
	}
	if srv.Addr != ":0" || srv.Handler == nil {
		t.Errorf("newServer dropped its address or handler: %q, %v", srv.Addr, srv.Handler)
	}
}

// TestServeUntilDrainsInFlight cancels the serving context while a
// request is in flight: serveUntil must not return before that request
// completes, and the client must get its full response.
func TestServeUntilDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, newServer(ln.Addr().String(), h), ln) }()

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- reply{body: string(b), err: err}
	}()

	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("serveUntil returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-got; r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request got %q, %v; want %q", r.body, r.err, "done")
	}
	if err := <-served; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
}
