//go:build unix

package node

import (
	"context"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"cachecloud/internal/document"
)

// processCPU is the user and system time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkPeerExchange is the ladder row of a peer call's server half: a
// real node behind a real server, HTTPTransport's own exchange from two
// callers, and the whole process's CPU per exchange (both halves of the
// hop, the handler, the gate, the store, the JSON) as cpu-ns/exchange. The
// nethttp rows hide the hijacker from the node, so net/http serves every
// request; the served rows are what a cluster runs.
func BenchmarkPeerExchange(b *testing.B) {
	for _, path := range []string{"nethttp", "served"} {
		for _, call := range []string{"fetch", "apply"} {
			b.Run(path+"/"+call, func(b *testing.B) { benchPeerExchange(b, path == "served", call == "apply") })
		}
	}
}

func benchPeerExchange(b *testing.B, served, apply bool) {
	n, err := NewCacheNodeWithTransport("n0", trioConfig(), scriptedNet{})
	if err != nil {
		b.Fatal(err)
	}
	doc := document.Document{URL: "http://live/doc/1", Size: 1000, Version: 1}
	if _, err := n.store.Put(document.Copy{Doc: doc}, 0); err != nil {
		b.Fatal(err)
	}
	h := n.Handler()
	if !served {
		h = hideHijacker(h)
	}
	srv := httptest.NewServer(h)
	defer func() {
		srv.Close()
		_ = n.Close()
		peerConns.closeIdle([]string{srv.Listener.Addr().String()})
	}()
	tp := NewHTTPTransport(TransportOptions{})
	one := func(i int) error {
		if apply {
			var ar applyResponse
			return tp.PostJSON(context.Background(), srv.URL+"/apply", UpdateRequest{Doc: document.Document{URL: doc.URL, Size: doc.Size, Version: document.Version(i + 2)}}, &ar)
		}
		var fr FetchResponse
		return tp.GetJSON(context.Background(), srv.URL+"/fetch?url=http%3A%2F%2Flive%2Fdoc%2F1", &fr)
	}
	if err := one(0); err != nil { // and the connection exists
		b.Fatal(err)
	}
	const callers = 2
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := processCPU(b)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < b.N; i += callers {
				if err := one(i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(processCPU(b)-cpu0)/float64(b.N), "cpu-ns/exchange")
	if got := n.served.count(); served != (got > 0) {
		b.Fatalf("%d served connections, served path %v", got, served)
	}
}
