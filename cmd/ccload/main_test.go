package main

import (
	"errors"
	"io"
	"math"
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

func TestCheckBackground(t *testing.T) {
	for _, tc := range []struct {
		v  float64
		ok bool
	}{
		{0, true}, {0.05, true}, {1.5, true},
		{-0.01, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		if err := checkBackground(tc.v); (err == nil) != tc.ok {
			t.Errorf("checkBackground(%v) = %v, want ok %v", tc.v, err, tc.ok)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		rate     float64
		duration time.Duration
		rankFrac float64
		clients  int
		dilation float64
		ok       bool
	}{
		{3000, 50 * ms, 0.6, 4, 1, true},
		{1e6, 100 * ms, 0, 1, 0.01, true},
		{maxArrivals, time.Second, 1, maxClients, 100, true},
		{-1, ms, 0.6, 4, 1, false},
		{0, 50 * ms, 0.6, 4, 1, false},
		{math.NaN(), 50 * ms, 0.6, 4, 1, false},
		{math.Inf(1), 50 * ms, 0.6, 4, 1, false},
		{maxArrivals + 1, time.Second, 0.6, 4, 1, false},
		{3000, 0, 0.6, 4, 1, false},
		{3000, -ms, 0.6, 4, 1, false},
		{3000, 50 * ms, -0.1, 4, 1, false},
		{3000, 50 * ms, 1.5, 4, 1, false},
		{3000, 50 * ms, math.NaN(), 4, 1, false},
		{3000, 50 * ms, 0.6, 0, 1, false},
		{3000, 50 * ms, 0.6, -2, 1, false},
		{3000, 50 * ms, 0.6, maxClients + 1, 1, false},
		{3000, 50 * ms, 0.6, 4, 0, false},
		{3000, 50 * ms, 0.6, 4, -1, false},
		{3000, 50 * ms, 0.6, 4, math.NaN(), false},
		{3000, 50 * ms, 0.6, 4, math.Inf(1), false},
	} {
		err := checkFlags(tc.rate, tc.duration, tc.rankFrac, tc.clients, tc.dilation)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(rate=%v duration=%v rank-frac=%v clients=%d dilation=%v) = %v, want ok %v",
				tc.rate, tc.duration, tc.rankFrac, tc.clients, tc.dilation, err, tc.ok)
		}
	}
}
