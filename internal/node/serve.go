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
	"time"
)

// The served half of a peer call (DESIGN.md §10): the handler every node
// kind returns takes the connection of the first request wire.go's exchange
// marked away from net/http and serves the rest of it from one goroutine,
// which reads each request by hand and gives it to the http.Server's own
// handler. Routes, handlers, gates and JSON are everyone's; any other
// request, or one on a connection that cannot be hijacked, is net/http's.

// PeerHeader marks a request of the node's own exchange: its sender speaks
// the subset of HTTP/1.1 the served loop reads and keeps the connection for
// more calls. A proxy between nodes must drop it or speak that subset.
const PeerHeader = "X-Cachecloud-Peer"

const (
	// servedIdleTimeout bounds a served connection nobody uses, and a
	// request from its first byte to the last of its reply. arm pushes the
	// deadline out only when under half is left, so an idle connection
	// closes after 120 to 240 s: past the client pool's idleConnTimeout
	// either way, so the caller's side goes first.
	servedIdleTimeout = 240 * time.Second
	// maxRequestHead bounds a request line and header block together: a
	// durable-tier URL of 64 KB, escaped threefold in /fetch?url=, fits.
	maxRequestHead = 256 << 10
	// maxRequestBody is the largest body a handler reads (readJSON).
	maxRequestBody = 16 << 20
)

// refused is a request the served loop does not read: the value is the
// status it answers with before it closes the connection.
type refused int

func (e refused) Error() string { return "node: peer request refused: " + http.StatusText(int(e)) }

// servedConns is the connections one node serves. Each belongs to the
// http.Server that accepted it, whose Shutdown closes it; the node's Close
// (a crash, to LocalCluster) closes all and takes no more.
type servedConns struct {
	mu     sync.Mutex
	closed bool
	conns  map[*servedConn]struct{}
	hooked map[*http.Server]bool // servers whose Shutdown calls close
	idle   time.Duration         // servedIdleTimeout unless a test shortens it
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
// node's routes. It is made from the request alone: marked, HTTP/1.1, a
// body of known and readable size, on a connection net/http lets go of.
func (s *servedConns) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, marked := r.Header[PeerHeader]; !marked {
			next.ServeHTTP(w, r)
			return
		}
		hj, canHijack := w.(http.Hijacker)
		srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
		if !canHijack || srv == nil || r.ProtoMajor != 1 || r.ProtoMinor != 1 || r.Close ||
			r.ContentLength < 0 || r.ContentLength > maxRequestBody {
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
		sc := newServedConn(s, srv, c, rw.Reader, rw.Writer, r)
		sc.body.Reset(buf.Bytes())
		r.Body = &sc.body
		sc.arm()
		r.Close = !s.add(sc) // a closed node answers and lets go
		// This request has come through the server's outer handlers already.
		if sc.answer(next, r) {
			go sc.run()
		} else {
			sc.close()
		}
	})
}

// servedConn is one peer's connection, served by one goroutine.
type servedConn struct {
	set *servedConns
	srv *http.Server
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	// deadline is the connection's I/O deadline, as last set.
	deadline time.Time
	// base is what every request of the connection starts from; ctx is the
	// parent of every request's context, with the values net/http gives a
	// request's. It is never cancelled: a request's own context ends when
	// its handler returns, not when the caller hangs up.
	base http.Request
	ctx  context.Context
	// Per request, reused: a handler keeps neither past its return.
	body  bodyReader
	reply replyWriter
}

// newServedConn is the state for serving c, taken from the server on the
// first request's terms.
func newServedConn(set *servedConns, srv *http.Server, c net.Conn, br *bufio.Reader, bw *bufio.Writer, first *http.Request) *servedConn {
	ctx := context.WithValue(context.Background(), http.ServerContextKey, srv)
	return &servedConn{set: set, srv: srv, c: c, br: br, bw: bw,
		base:  http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, RemoteAddr: first.RemoteAddr, TLS: first.TLS},
		ctx:   context.WithValue(ctx, http.LocalAddrContextKey, c.LocalAddr()),
		reply: replyWriter{header: make(http.Header, 4)},
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

func (sc *servedConn) close() {
	sc.set.mu.Lock()
	delete(sc.set.conns, sc)
	sc.set.mu.Unlock()
	_ = sc.c.Close()
}

// arm pushes the connection's deadline out to the idle time when less than
// half of that is left: a deadline set for every request costs a microsecond
// an exchange in timer updates, and one that has just arrived needs only
// that plenty is left.
func (sc *servedConn) arm() {
	idle := sc.set.idle
	if idle <= 0 {
		idle = servedIdleTimeout
	}
	if now := time.Now(); sc.deadline.Sub(now) < idle/2 {
		sc.deadline = now.Add(idle)
		_ = sc.c.SetDeadline(sc.deadline)
	}
}

// run serves the connection until it fails, idles out, is closed by an
// owner or carries a request the loop refuses.
func (sc *servedConn) run() {
	defer sc.close()
	for sc.serveNext() {
	}
}

// serveNext waits for a request, reads it, gives it to the server's current
// handler — read per request, as net/http does, so whatever wraps the
// node's Handler() sees every request and a swapped handler takes effect —
// and answers. It holds pooled buffers only between a request's first byte
// and its reply.
func (sc *servedConn) serveNext() (keep bool) {
	if _, err := sc.br.Peek(1); err != nil {
		return false
	}
	sc.arm()
	buf := getBuf()
	defer putBuf(buf)
	ctx, cancel := context.WithCancel(sc.ctx)
	defer cancel()
	r, err := sc.readRequest(ctx, buf)
	if err != nil {
		var status refused
		if errors.As(err, &status) {
			sc.bw.WriteString("HTTP/1.1 " + strconv.Itoa(int(status)) + " " + http.StatusText(int(status)) +
				"\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
			_ = sc.bw.Flush() // the connection is closed either way
		}
		return false
	}
	h := sc.srv.Handler
	if h == nil {
		h = http.DefaultServeMux
	}
	return sc.answer(h, r)
}

// readRequest reads one request, head and body, through buf: a strict
// subset of HTTP/1.1 (DESIGN.md §10 lists it), so that whatever it accepts
// http.ReadRequest reads the same way. Header values are copied out of buf,
// the body stays in it.
func (sc *servedConn) readRequest(ctx context.Context, buf *bytes.Buffer) (*http.Request, error) {
	for {
		start := buf.Len()
		for {
			frag, err := sc.br.ReadSlice('\n')
			buf.Write(frag)
			if buf.Len() > maxRequestHead {
				return nil, refused(http.StatusRequestHeaderFieldsTooLarge)
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
			return nil, refused(http.StatusBadRequest)
		}
		if len(line) == 2 {
			break
		}
	}
	head := buf.String()
	buf.Reset()

	line, rest, _ := strings.Cut(head, "\r\n")
	method, line, _ := strings.Cut(line, " ")
	target, proto, _ := strings.Cut(line, " ")
	if method != http.MethodGet && method != http.MethodPost || proto != "HTTP/1.1" ||
		!strings.HasPrefix(target, "/") || !allOf(target, &targetBytes) {
		return nil, refused(http.StatusBadRequest)
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, refused(http.StatusBadRequest)
	}
	r := sc.base.WithContext(ctx) // a copy
	r.Method, r.URL, r.RequestURI, r.Header = method, u, target, make(http.Header, 8)
	length, hosts := int64(-1), 0
	vals := make([]string, 0, strings.Count(rest, "\n")) // one allocation for the values' slices
	for rest != "\r\n" {
		line, rest, _ = strings.Cut(rest, "\r\n")
		name, val, found := strings.Cut(line, ":")
		val = strings.Trim(val, " \t")
		if !found || name == "" || !allOf(name, &tokenBytes) || !headerSafe(val) {
			return nil, refused(http.StatusBadRequest)
		}
		key := name
		switch name {
		case "Host", "Content-Length", "Content-Type", PeerHeader, DeadlineHeader, TenantHeader:
		default: // not as the exchange writes it
			key = textproto.CanonicalMIMEHeaderKey(name)
		}
		switch key {
		case "Content-Length":
			n, err := strconv.ParseUint(val, 10, 63)
			if err != nil || length >= 0 {
				return nil, refused(http.StatusBadRequest)
			}
			if n > maxRequestBody {
				return nil, refused(http.StatusRequestEntityTooLarge)
			}
			length = int64(n)
		case "Transfer-Encoding", "Expect", "Upgrade":
			return nil, refused(http.StatusBadRequest)
		case "Host":
			if hosts++; val == "" || !allOf(val, &hostBytes) {
				return nil, refused(http.StatusBadRequest)
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
	if hosts != 1 {
		return nil, refused(http.StatusBadRequest)
	}
	r.Close = saysClose(r.Header["Connection"])
	r.ContentLength = max(length, 0)
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

// answer runs the handler and writes its reply — status line, the handler's
// headers, Content-Length, body — in one flush. keep reports whether the
// connection can carry another request. A panic costs the connection and
// nothing else, as in net/http; so does a reply that cannot be written.
func (sc *servedConn) answer(h http.Handler, r *http.Request) (keep bool) {
	w := &sc.reply
	clear(w.header)
	w.status, w.body = 0, getBuf()
	defer func() {
		putBuf(w.body)
		w.body = nil
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
	bw := sc.bw
	bw.WriteString("HTTP/1.1 ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(status), 10))
	bw.WriteByte(' ')
	bw.WriteString(http.StatusText(status))
	bw.WriteString("\r\n")
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
	return bw.Flush() == nil && !closing
}
