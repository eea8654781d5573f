package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the daemon's connection timeouts: the
// header read and keep-alive idle time are bounded, while whole-request
// read and response write stay unbounded for /trace streaming and large
// report GETs.
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("localhost:0", http.NotFoundHandler())
	if hs.Addr != "localhost:0" || hs.Handler == nil {
		t.Errorf("addr %q, handler %v", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v, want both 0 (unbounded)", hs.ReadTimeout, hs.WriteTimeout)
	}
}
