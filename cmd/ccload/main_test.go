package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// serve starts newServer(h) on a loopback port and returns its address.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(h)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// A client that sends half a header and then stalls must be cut off by
// the server once readHeaderTimeout passes, not held open forever.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	addr := serve(t, http.NotFoundHandler())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: ccload\r\nX-Stalled: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// Our own deadline only bounds the test; the server must close first.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still held the stalled connection after %v", elapsed)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}

// The timeouts must not get in the way of a well-behaved client.
func TestServerAnswersPromptClient(t *testing.T) {
	addr := serve(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != "ok" {
		t.Fatalf("body %q, err %v", body, err)
	}
}
