package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// The generator speaks HTTP/1.1 over its own persistent connections
// instead of through net/http's client. Two reasons, both measured on the
// seed commit: the open phase's dispatcher must put a request on the wire
// at its due time without handing it to another goroutine first (the
// hand-off alone was a millisecond at p99 under load), and net/http's
// client cost as much CPU per request as the cache node's whole hit path,
// which would make the benchmark half a measurement of itself.

// wireConn is one connection to one host, used by one request at a time.
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	buf  []byte // the request being rendered
	body []byte // the reply body being read
}

// wirePool holds a host's idle connections.
type wirePool struct {
	host string // host:port

	mu   sync.Mutex
	idle []*wireConn
}

func newWirePool(baseURL string) *wirePool {
	return &wirePool{host: strings.TrimPrefix(baseURL, "http://")}
}

// get pops an idle connection or dials a new one.
func (p *wirePool) get() (*wireConn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		wc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return wc, nil
	}
	p.mu.Unlock()
	c, err := net.Dial("tcp", p.host)
	if err != nil {
		return nil, err
	}
	return &wireConn{c: c, br: bufio.NewReader(c)}, nil
}

func (p *wirePool) put(wc *wireConn) {
	p.mu.Lock()
	p.idle = append(p.idle, wc)
	p.mu.Unlock()
}

// prime opens n connections ahead of use, so the timed phases rarely dial.
func (p *wirePool) prime(n int) error {
	conns := make([]*wireConn, 0, n)
	for i := 0; i < n; i++ {
		wc, err := p.get()
		if err != nil {
			return err
		}
		conns = append(conns, wc)
	}
	for _, wc := range conns {
		p.put(wc)
	}
	return nil
}

func (p *wirePool) close() {
	p.mu.Lock()
	for _, wc := range p.idle {
		_ = wc.c.Close()
	}
	p.idle = nil
	p.mu.Unlock()
}

// roundTrip sends one request on a pooled connection and reads the reply
// with read: (*wireConn).receive or (*wireConn).receiveAny.
func (p *wirePool) roundTrip(target string, body []byte, read func(*wireConn, any) (int, bool), out any) (code int, err error) {
	wc, err := p.get()
	if err != nil {
		return 0, err
	}
	if err := wc.send(p.host, target, body); err != nil {
		_ = wc.c.Close()
		return 0, err
	}
	code, reusable := read(wc, out)
	if reusable {
		p.put(wc)
	} else {
		_ = wc.c.Close()
	}
	return code, nil
}

// header is one extra request header.
type header struct{ name, value string }

// send renders and writes one request. target is the request target
// ("/doc?url=..."); a nil body makes it a GET, otherwise a JSON POST.
func (wc *wireConn) send(host, target string, body []byte, headers ...header) error {
	b := wc.buf[:0]
	if body == nil {
		b = append(b, "GET "...)
	} else {
		b = append(b, "POST "...)
	}
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	for _, h := range headers {
		if h.value == "" {
			continue
		}
		b = append(b, h.name...)
		b = append(b, ": "...)
		b = append(b, h.value...)
		b = append(b, "\r\n"...)
	}
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	wc.buf = b
	_, err := wc.c.Write(b)
	return err
}

// receive reads the reply to a /doc or /publish op, decoding a 200's JSON
// body into out. It returns the status code and whether the connection can
// carry another request; code 0 means the reply could not be read or
// decoded. It parses by hand what net/http would allocate a Response, a
// header map and two body wrappers for: the generator's garbage would
// otherwise be a fair share of the heap the cluster's collector works on.
// The nodes send these replies with a Content-Length; anything else is
// treated as unreadable.
func (wc *wireConn) receive(out any) (code int, reusable bool) {
	line, err := wc.br.ReadSlice('\n')
	if err != nil || len(line) < len("HTTP/1.1 200") {
		return 0, false
	}
	if code, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false
	}
	length, reusable := -1, true
	for {
		if line, err = wc.br.ReadSlice('\n'); err != nil {
			return 0, false
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, false
			}
		} else if bytes.HasPrefix(line, []byte("Connection: close")) {
			reusable = false
		}
	}
	if length < 0 {
		return 0, false
	}
	if cap(wc.body) < length {
		wc.body = make([]byte, length)
	}
	body := wc.body[:length]
	if _, err := io.ReadFull(wc.br, body); err != nil {
		return 0, false
	}
	if code == http.StatusOK && out != nil && json.Unmarshal(body, out) != nil {
		return 0, reusable
	}
	return code, reusable
}

// receiveAny reads any reply (chunked /stats bodies too) through net/http.
func (wc *wireConn) receiveAny(out any) (code int, reusable bool) {
	resp, err := http.ReadResponse(wc.br, nil)
	if err != nil {
		return 0, false
	}
	code = resp.StatusCode
	if code == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			code = 0
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return code, err == nil && !resp.Close
}
