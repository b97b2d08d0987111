package node

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The served half of an exchange (DESIGN.md §10): the handler every node
// kind returns takes a keep-alive HTTP/1.1 connection away from net/http on
// the first request the loop below would have read itself, and serves the
// rest of it from one goroutine, which reads each request by hand and gives
// it to the http.Server's own handler. Routes, handlers, gates and JSON are
// everyone's. What the loop does not read it does not answer either: the
// connection goes back to net/http, the unanswered bytes in front.

const (
	// servedTimeout is the loop's own bound where the server sets none: on a
	// request's head, on a connection nobody uses, on a reply nobody reads.
	// Above the client pool's idleConnTimeout, so the caller's side goes first.
	servedTimeout = 120 * time.Second
	// maxRequestHead bounds a request line and header block together: a
	// durable-tier URL of 64 KB, escaped threefold in /fetch?url=, fits.
	maxRequestHead = 256 << 10
	// maxRequestBody is the largest body a handler reads (readJSON).
	maxRequestBody = 16 << 20
)

// errNotSpoken is a request outside the subset the loop reads: the bytes
// read of it are net/http's to read again.
var errNotSpoken = errors.New("node: not a request the served loop reads")

// loopReads reports whether a request's head asks for what the served loop
// does: the one test the front handler makes on net/http's parse and
// readRequest on its own. Everything else is net/http's.
func loopReads(r *http.Request) bool {
	return r.ProtoMajor == 1 && r.ProtoMinor == 1 &&
		(r.Method == http.MethodGet || r.Method == http.MethodPost) &&
		r.ContentLength >= 0 && r.ContentLength <= maxRequestBody && // net/http: -1 when chunked
		r.Header["Transfer-Encoding"] == nil && r.Header["Expect"] == nil && r.Header["Upgrade"] == nil
}

// servedConns is the connections one node serves. Each belongs to the
// http.Server that accepted it, whose Shutdown closes it; the node's Close
// (a crash, to LocalCluster) closes all and takes no more.
type servedConns struct {
	mu     sync.Mutex
	closed bool
	conns  map[*servedConn]struct{}
	hooked map[*http.Server]bool // servers whose Shutdown calls close
}

// add registers a connection; false means the node is closed.
func (s *servedConns) add(sc *servedConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns, s.hooked = make(map[*servedConn]struct{}), make(map[*http.Server]bool)
	}
	if srv := sc.srv; !s.hooked[srv] {
		s.hooked[srv] = true
		srv.RegisterOnShutdown(func() { s.close(srv) })
	}
	s.conns[sc] = struct{}{}
	return true
}

func (s *servedConns) remove(sc *servedConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// close closes the served connections of srv, or with a nil srv every one,
// for good. Like http.Server.Close it does not wait for a running handler:
// that connection's loop ends when its reply cannot be written.
func (s *servedConns) close(srv *http.Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = s.closed || srv == nil
	for sc := range s.conns {
		if srv == nil || sc.srv == srv {
			_ = sc.c.Close()
		}
	}
}

// handler puts the choice between the two server paths in front of a
// node's routes: a request the loop would have read, on a plain connection
// that stays open and that net/http lets go of.
func (s *servedConns) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, canHijack := w.(http.Hijacker) // not the loop's own writer: its requests stop here
		srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
		if !canHijack || srv == nil || r.TLS != nil || r.Close || !loopReads(r) {
			next.ServeHTTP(w, r)
			return
		}
		// The body first: it is net/http's to read until the hijack.
		buf := getBuf()
		defer putBuf(buf)
		if _, err := io.CopyN(buf, r.Body, r.ContentLength); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		c, rw, err := hj.Hijack()
		if err != nil {
			r.Body = io.NopCloser(bytes.NewReader(buf.Bytes()))
			next.ServeHTTP(w, r)
			return
		}
		sc := newServedConn(s, srv, c, rw.Reader, r.RemoteAddr) // rw.Writer is never used
		sc.body.Reset(buf.Bytes())
		r.Body = &sc.body
		sc.last = time.Now()
		sc.arm(sc.last)
		r.Close = !s.add(sc) // a closed node answers and lets go
		// This request has come through the server's outer handlers already.
		if sc.answer(next, r) {
			go sc.run()
		} else {
			s.remove(sc)
			_ = c.Close()
		}
	})
}

// servedConn is one connection, served by one goroutine.
type servedConn struct {
	set *servedConns
	srv *http.Server
	c   net.Conn
	// br is what requests are read through: net/http's reader until what it
	// buffered is used up, then one of readerPool's, taken at a request's
	// first byte and given back when the loop goes idle with nothing
	// buffered; nil while idle. Where the connection cannot be waited on
	// without a buffer (wait is nil) net/http's reader stays for good.
	br   *bufio.Reader
	wait func() error // the wait for a readable byte that holds no buffer
	// last is when the newest request's first byte was seen; readBy and
	// writeBy are the connection's read and write deadlines, as last set.
	last, readBy, writeBy time.Time
	// ctx is the parent of every request's context, with the values net/http
	// gives a request's. It is never cancelled: a request's own context ends
	// when its handler returns, not when the caller hangs up.
	ctx        context.Context
	remoteAddr string
	// Per request, reused: a handler keeps neither past its return.
	body  bodyReader
	reply replyWriter
}

// headerPool holds the replies' header maps: a connection between requests
// holds none.
var headerPool = sync.Pool{New: func() any { return make(http.Header, 4) }}

// newServedConn is the state for serving c, taken from srv with br, the
// reader net/http read the first request through.
func newServedConn(set *servedConns, srv *http.Server, c net.Conn, br *bufio.Reader, remoteAddr string) *servedConn {
	ctx := context.WithValue(context.Background(), http.ServerContextKey, srv)
	return &servedConn{set: set, srv: srv, c: c, br: br, wait: bareWait(c),
		ctx:        context.WithValue(ctx, http.LocalAddrContextKey, c.LocalAddr()),
		remoteAddr: remoteAddr,
	}
}

// bodyReader is a request body that has been read already.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// replyWriter is the ResponseWriter a handler fills; answer sends it.
type replyWriter struct {
	header http.Header
	status int
	body   *bytes.Buffer
}

func (w *replyWriter) Header() http.Header { return w.header }

// WriteHeader keeps the first final status; the loop sends no 1xx.
func (w *replyWriter) WriteHeader(status int) {
	if w.status == 0 && status >= 200 {
		w.status = status
	}
}

func (w *replyWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// Flush is net/http's writer's too, but the reply goes out whole.
func (*replyWriter) Flush() {}

// timeouts is how long a request's head may take from its first byte and
// how long the connection may sit unused: the server's ReadHeaderTimeout and
// IdleTimeout, with ReadTimeout standing in for either as in net/http, and
// the loop's own bound where the server sets none.
func (sc *servedConn) timeouts() (head, idle time.Duration) {
	srv := sc.srv
	return firstSet(srv.ReadHeaderTimeout, srv.ReadTimeout), firstSet(srv.IdleTimeout, srv.ReadTimeout)
}

func firstSet(a, b time.Duration) time.Duration {
	if a > 0 {
		return a
	}
	if b > 0 {
		return b
	}
	return servedTimeout
}

// arm keeps the read deadline between one and two head timeouts ahead of
// now (idle timeouts, should that be the shorter: the next wait begins under
// what this request leaves). A deadline set for every request costs a
// microsecond an exchange in timer updates.
func (sc *servedConn) arm(now time.Time) {
	head, idle := sc.timeouts()
	head = min(head, idle)
	if left := sc.readBy.Sub(now); left < head || left > 2*head {
		sc.readBy = now.Add(2 * head)
		_ = sc.c.SetReadDeadline(sc.readBy)
	}
}

// await waits for a request's first byte under whatever read deadline the
// last request left. One that runs out before the idle time has passed was a
// head's: the wait goes on to the idle time's end, so an unused connection
// wakes its goroutine once and a busy one sets no timer.
func (sc *servedConn) await() bool {
	for {
		err := sc.firstByte()
		if err == nil {
			sc.last = time.Now()
			sc.arm(sc.last)
			return true
		}
		_, idle := sc.timeouts()
		if end := sc.last.Add(idle); isTimeout(err) && time.Now().Before(end) {
			sc.readBy = end
			_ = sc.c.SetReadDeadline(end)
			continue
		}
		return false
	}
}

// firstByte waits for a request's first byte. Where the connection can be
// waited on without a buffer and its reader holds no pipelined bytes, the
// reader goes before the wait and one comes from the pool after it.
func (sc *servedConn) firstByte() error {
	if sc.wait != nil && (sc.br == nil || sc.br.Buffered() == 0) {
		sc.dropReader()
		if err := sc.wait(); err != nil {
			return err
		}
		sc.br = getReader(sc.c)
	}
	_, err := sc.br.Peek(1)
	return err
}

// dropReader gives the connection's reader to the pool, net/http's too:
// after the hijack nothing of net/http's reads it, and once it is reset
// nothing of net/http's stays reachable from it.
func (sc *servedConn) dropReader() {
	if sc.br != nil {
		putReader(sc.br)
		sc.br = nil
	}
}

// run serves the connection until it fails, idles out, is closed by an
// owner, or carries a request the loop does not read: then the server that
// accepted it gets it back as a listener's only connection.
func (sc *servedConn) run() {
	back := sc.serve()
	sc.set.remove(sc)
	if back == nil {
		_ = sc.c.Close()
		return
	}
	_ = back.SetDeadline(time.Time{}) // net/http resets no deadline it did not set
	l := &oneConn{c: back}
	// Serve returns once the connection has its goroutine (the second Accept
	// fails), or at once if the server is shutting down.
	if _ = sc.srv.Serve(l); !l.taken {
		_ = back.Close()
	}
}

// serve answers requests until the connection is over (nil) or the next one
// is not the loop's: then it returns the connection as net/http is to have it.
func (sc *servedConn) serve() (back net.Conn) {
	defer sc.dropReader()
	for sc.await() {
		keep, back := sc.serveNext()
		if !keep {
			return back
		}
	}
	return nil
}

// serveNext reads the request that has begun to arrive, gives it to the
// server's current handler — read per request, as net/http does, so whatever
// wraps the node's Handler() sees every request and a swapped handler takes
// effect — and answers. It holds pooled buffers only between a request's
// first byte and its reply.
func (sc *servedConn) serveNext() (keep bool, back net.Conn) {
	buf := getBuf()
	defer putBuf(buf)
	ctx, cancel := context.WithCancel(sc.ctx)
	defer cancel()
	r, err := sc.readRequest(ctx, buf)
	if err == errNotSpoken {
		return false, sc.release(buf.Bytes())
	}
	if err != nil {
		return false, nil
	}
	h := sc.srv.Handler
	if h == nil {
		h = http.DefaultServeMux
	}
	return sc.answer(h, r), nil
}

// release wraps the connection for its way back: unread (what the loop has
// consumed of the request it does not read), whatever else it has buffered,
// then the connection.
func (sc *servedConn) release(unread []byte) net.Conn {
	rest, _ := sc.br.Peek(sc.br.Buffered())
	front := make([]byte, len(unread)+len(rest))
	copy(front[copy(front, unread):], rest)
	base := sc.c
	if rc, ok := base.(*replayConn); ok && rc.front == nil {
		base = rc.Conn // or a connection that goes back and forth grows a wrapper a round
	}
	return &replayConn{Conn: base, front: front}
}

// replayConn is a connection with bytes already read off it back in front.
type replayConn struct {
	net.Conn
	front []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.front == nil {
		return c.Conn.Read(p)
	}
	n := copy(p, c.front)
	if c.front = c.front[n:]; len(c.front) == 0 {
		c.front = nil // and the array goes
	}
	return n, nil
}

// CloseWrite is how net/http ends a reply it closes the connection after.
func (c *replayConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// oneConn is a listener with one connection to give.
type oneConn struct {
	c     net.Conn
	taken bool
}

func (l *oneConn) Accept() (net.Conn, error) {
	if l.taken {
		return nil, net.ErrClosed
	}
	l.taken = true
	return l.c, nil
}

func (l *oneConn) Close() error   { return nil }
func (l *oneConn) Addr() net.Addr { return l.c.LocalAddr() }

// readRequest reads one request, head and body, through buf: a strict
// subset of HTTP/1.1 (DESIGN.md §10 lists it), so that whatever it accepts
// http.ReadRequest reads the same way. Header values are copied out of buf,
// the body stays in it. With errNotSpoken nothing past the head has been
// read, and buf holds every byte that has.
func (sc *servedConn) readRequest(ctx context.Context, buf *bytes.Buffer) (*http.Request, error) {
	for {
		start := buf.Len()
		for {
			frag, err := sc.br.ReadSlice('\n')
			buf.Write(frag)
			if buf.Len() > maxRequestHead {
				return nil, errNotSpoken
			}
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull { // a line longer than the reader: go on
				return nil, err
			}
		}
		line := buf.Bytes()[start:]
		if len(line) < 2 || line[len(line)-2] != '\r' {
			return nil, errNotSpoken
		}
		if len(line) == 2 {
			break
		}
	}
	head := buf.String()

	line, rest, _ := strings.Cut(head, "\r\n")
	method, line, _ := strings.Cut(line, " ")
	target, proto, _ := strings.Cut(line, " ")
	if !strings.HasPrefix(target, "/") || !allOf(target, &targetBytes) {
		return nil, errNotSpoken
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, errNotSpoken
	}
	base := http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, RemoteAddr: sc.remoteAddr}
	r := base.WithContext(ctx) // base stays on the stack: r is its copy
	r.Method, r.URL, r.RequestURI, r.Header = method, u, target, make(http.Header, 8)
	if proto != "HTTP/1.1" {
		r.ProtoMajor = 0 // whatever it is, loopReads says no
	}
	length, hosts := int64(-1), 0
	vals := make([]string, 0, strings.Count(rest, "\n")) // one allocation for the values' slices
	for rest != "\r\n" {
		line, rest, _ = strings.Cut(rest, "\r\n")
		name, val, found := strings.Cut(line, ":")
		val = strings.Trim(val, " \t")
		if !found || name == "" || !allOf(name, &tokenBytes) || !headerSafe(val) {
			return nil, errNotSpoken
		}
		key := name
		switch name {
		case "Host", "Content-Length", "Content-Type", DeadlineHeader, TenantHeader:
		default: // not as the exchange writes it
			key = textproto.CanonicalMIMEHeaderKey(name)
		}
		switch key {
		case "Content-Length":
			n, err := strconv.ParseUint(val, 10, 63)
			if err != nil || length >= 0 {
				return nil, errNotSpoken
			}
			length = int64(n)
		case "Host":
			if hosts++; val == "" || !allOf(val, &hostBytes) {
				return nil, errNotSpoken
			}
			r.Host = val
			continue // net/http keeps it out of the header too
		}
		if prev, repeated := r.Header[key]; repeated {
			r.Header[key] = append(prev, val)
		} else {
			vals = append(vals, val)
			r.Header[key] = vals[len(vals)-1 : len(vals) : len(vals)]
		}
	}
	r.Close = saysClose(r.Header["Connection"])
	r.ContentLength = max(length, 0)
	if hosts != 1 || !loopReads(r) {
		return nil, errNotSpoken
	}
	buf.Reset()
	if r.ContentLength > int64(sc.br.Buffered()) {
		sc.arm(time.Now()) // a body still on its way gets a head's time again
	}
	if _, err := readInto(buf, sc.br, r.ContentLength); err != nil {
		return nil, err
	}
	if int64(buf.Len()) != r.ContentLength {
		return nil, io.ErrUnexpectedEOF
	}
	sc.body.Reset(buf.Bytes())
	r.Body = &sc.body
	return r, nil
}

// saysClose reports whether a Connection header has the close token.
func saysClose(vals []string) bool {
	for _, v := range vals {
		for _, tok := range strings.Split(v, ",") {
			if strings.EqualFold(strings.Trim(tok, " \t"), "close") {
				return true
			}
		}
	}
	return false
}

// allOf reports whether every byte of s is in set.
func allOf(s string, set *[256]bool) bool {
	for i := 0; i < len(s); i++ {
		if !set[s[i]] {
			return false
		}
	}
	return true
}

// dateLine is a Date header line and the second it is of.
type dateLine struct {
	sec  int64
	line string
}

// servedDate is the newest Date line any served connection has needed.
var servedDate atomic.Pointer[dateLine]

func dateHeader(now time.Time) string {
	d := servedDate.Load()
	if sec := now.Unix(); d == nil || d.sec != sec {
		d = &dateLine{sec, "Date: " + now.UTC().Format(http.TimeFormat) + "\r\n"}
		servedDate.Store(d)
	}
	return d.line
}

// answer runs the handler and writes its reply — status line, Date, the
// handler's headers, Content-Length, body — in one flush, through a writer
// taken from the pool for it. keep reports whether the connection can carry
// another request. A panic costs the connection and nothing else, as in
// net/http; so does a reply that cannot be written.
func (sc *servedConn) answer(h http.Handler, r *http.Request) (keep bool) {
	w := &sc.reply
	w.header, w.status, w.body = headerPool.Get().(http.Header), 0, getBuf()
	defer func() {
		clear(w.header)
		headerPool.Put(w.header)
		putBuf(w.body)
		w.header, w.body = nil, nil
		sc.body.Reset(nil) // or an idle connection pins its last request's buffer
		if p := recover(); p != nil {
			keep = false
			if p != http.ErrAbortHandler {
				log.Printf("node: panic serving %s %s from %s: %v\n%s", r.Method, r.URL.Path, r.RemoteAddr, p, debug.Stack())
			}
		}
	}()
	h.ServeHTTP(w, r)

	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	// A client that does not read its reply holds the goroutine no longer.
	if sc.writeBy.Sub(sc.last) < servedTimeout {
		sc.writeBy = time.Now().Add(2 * servedTimeout)
		_ = sc.c.SetWriteDeadline(sc.writeBy)
	}
	bw := getWriter(sc.c)
	bw.WriteString("HTTP/1.1 ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(status), 10))
	bw.WriteByte(' ')
	bw.WriteString(http.StatusText(status))
	bw.WriteString("\r\n")
	if w.header["Date"] == nil {
		bw.WriteString(dateHeader(sc.last))
	}
	closing := r.Close || saysClose(w.header["Connection"])
	for key, vals := range w.header {
		if key == "Content-Length" || key == "Connection" {
			continue // the loop's own, below
		}
		for _, v := range vals {
			if headerSafe(v) {
				bw.WriteString(key)
				bw.WriteString(": ")
				bw.WriteString(v)
				bw.WriteString("\r\n")
			}
		}
	}
	if closing {
		bw.WriteString("Connection: close\r\n")
	}
	if status == http.StatusNoContent || status == http.StatusNotModified {
		bw.WriteString("\r\n")
	} else {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(w.body.Len()), 10))
		bw.WriteString("\r\n\r\n")
		bw.Write(w.body.Bytes())
	}
	sent := bw.Flush() == nil
	putWriter(bw)
	return sent && !closing
}
