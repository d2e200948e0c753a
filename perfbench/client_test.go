package main

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// The client keeps one connection per worker across requests, and
// reopens it after an answer that closes it.
func TestClientKeepAliveAndReopen(t *testing.T) {
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("close") == "1" {
			w.Header().Set("Connection", "close")
		}
		w.Write([]byte(r.URL.RawQuery + "|" + r.Header.Get(serveSpanHeader)))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	cl := newClient(1)
	defer cl.close()
	cs, err := cl.dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, tc := range []struct {
		u    string
		span int64
		want string
	}{
		{"/a?x=1", 0, "x=1|"},
		{"/a?x=2", 7, "x=2|7"},
		{"/a?close=1", 0, "close=1|"},
		{"/a?x=3", 0, "x=3|"},
	} {
		code, err := cs[0].get(tc.u, tc.span, &buf)
		if err != nil || code != http.StatusOK || buf.String() != tc.want {
			t.Fatalf("request %d: code %d, body %q, err %v; want 200, %q", i, code, buf.String(), err, tc.want)
		}
	}
	if n := opened.Load(); n != 2 {
		t.Errorf("opened %d connections, want 2 (one reopen after Connection: close)", n)
	}
}
