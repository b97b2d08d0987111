//go:build unix

package node

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strconv"
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

// benchNode is a cache node holding one document behind a real server, on
// net/http's path or on the loop's.
func benchNode(b *testing.B, served bool) (*CacheNode, *httptest.Server, document.Document) {
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
	b.Cleanup(func() {
		srv.Close()
		_ = n.Close()
		peerConns.closeIdle([]string{srv.Listener.Addr().String()})
	})
	return n, srv, doc
}

// runCallers makes b.N calls from two goroutines and reports the process's
// CPU per call under unit.
func runCallers(b *testing.B, n *CacheNode, served bool, unit string, one func(caller, i int) error) {
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
				if err := one(c, i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(processCPU(b)-cpu0)/float64(b.N), unit)
	if got := n.served.count(); served != (got > 0) {
		b.Fatalf("%d served connections, served path %v", got, served)
	}
}

func benchPeerExchange(b *testing.B, served, apply bool) {
	n, srv, doc := benchNode(b, served)
	tp := NewHTTPTransport(TransportOptions{})
	one := func(_, i int) error {
		if apply {
			var ar applyResponse
			return tp.PostJSON(context.Background(), srv.URL+"/apply", UpdateRequest{Doc: document.Document{URL: doc.URL, Size: doc.Size, Version: document.Version(i + 2)}}, &ar)
		}
		var fr FetchResponse
		return tp.GetJSON(context.Background(), srv.URL+"/fetch?url=http%3A%2F%2Flive%2Fdoc%2F1", &fr)
	}
	if err := one(0, 0); err != nil { // and the connection exists
		b.Fatal(err)
	}
	runCallers(b, n, served, "cpu-ns/exchange", one)
}

// BenchmarkClientDoc is the ladder row of a client's exchange: a warm /doc
// hit asked for as the benchmark's generator asks — a request written by
// hand on a kept connection, the reply's head scanned for its length, the
// body dropped — from two callers, and the whole process's CPU per request
// as cpu-ns/req. The nethttp row hides the hijacker from the node; the
// served row is what a client of a running node gets.
func BenchmarkClientDoc(b *testing.B) {
	for _, path := range []string{"nethttp", "served"} {
		b.Run(path, func(b *testing.B) { benchClientDoc(b, path == "served") })
	}
}

func benchClientDoc(b *testing.B, served bool) {
	n, srv, _ := benchNode(b, served)
	host := srv.Listener.Addr().String()
	req := []byte("GET /doc?url=http%3A%2F%2Flive%2Fdoc%2F1 HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
	var conns [2]net.Conn
	var readers [2]*bufio.Reader
	one := func(caller, _ int) error {
		c, br := conns[caller], readers[caller]
		if _, err := c.Write(req); err != nil {
			return err
		}
		line, err := br.ReadSlice('\n')
		if err != nil || !bytes.HasPrefix(line, []byte("HTTP/1.1 200")) {
			return fmt.Errorf("status line %q: %v", line, err)
		}
		length := -1
		for {
			if line, err = br.ReadSlice('\n'); err != nil {
				return err
			}
			if len(line) <= 2 {
				break
			}
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
					return err
				}
			}
		}
		_, err = br.Discard(length)
		return err
	}
	for i := range conns {
		c, err := net.Dial("tcp", host)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conns[i], readers[i] = c, bufio.NewReader(c)
		if err := one(i, 0); err != nil { // the connection's first request is net/http's either way
			b.Fatal(err)
		}
	}
	runCallers(b, n, served, "cpu-ns/req", one)
}
