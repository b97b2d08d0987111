package node

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The peer exchange: HTTPTransport's single attempt against a plain
// http:// peer, written and read on the calling goroutine over a pooled
// persistent connection instead of through net/http's client (DESIGN.md
// §10 has the measurements and the rules). Nothing here retries, counts
// against a breaker or interprets a status: it hands the status, the 429
// hints and the body to replyResult, exactly as doJSON does.

const (
	// maxIdlePerHost bounds the idle connections kept to one host; a
	// connection handed back past it is closed.
	maxIdlePerHost = 4
	// idleConnTimeout is how long an unused connection stays in the pool.
	idleConnTimeout = 90 * time.Second
	// maxReplyBytes caps a reply body that is to be decoded.
	maxReplyBytes = 64 << 20
	// errBodyBytes is how much of an error reply's body the error quotes.
	errBodyBytes = 4096
	// maxDrainBytes is how much unwanted body is read to keep a connection;
	// past it, closing is cheaper.
	maxDrainBytes = 1 << 20
	// maxHeaderLines bounds a reply's header block (each line is bounded by
	// the connection's 4 KB read buffer).
	maxHeaderLines = 128
)

var errMalformedReply = errors.New("malformed HTTP reply")

// peerConn is one persistent connection to one peer, used by one call at a
// time. Its reader and writer are the pools', taken for one attempt: a
// connection in connPool holds neither.
type peerConn struct {
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	lim    io.LimitedReader // the body of a reply with a Content-Length
	idleAt time.Time        // when it went back to the pool
}

// connBufSize is the size of a connection's reader and of its writer, on
// either side of an exchange.
const connBufSize = 4 << 10

// The readers and writers of the exchanges under way, both sides': a
// connection between exchanges, pooled or served, holds neither.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBufSize) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, connBufSize) }}
)

func getReader(c net.Conn) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	return br
}

// putReader gives a reader back, whatever it has buffered discarded.
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

func getWriter(c net.Conn) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(c)
	return bw
}

// putWriter gives a writer back, whatever it has not flushed discarded.
func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

// release gives the attempt's reader and writer back; nothing of theirs
// stays reachable from the connection.
func (pc *peerConn) release() {
	putReader(pc.br)
	putWriter(pc.bw)
	pc.br, pc.bw, pc.lim = nil, nil, io.LimitedReader{}
}

// connPool holds the idle peer connections of the whole process, as
// http.DefaultTransport did before it: every node of an in-process cluster
// shares it, so its size does not grow with the number of transports.
type connPool struct {
	mu       sync.Mutex
	idle     map[string][]*peerConn // by dial address, oldest first
	sweeping bool                   // an idle sweep is scheduled
}

var peerConns = connPool{idle: make(map[string][]*peerConn)}

// get takes the most recently used idle connection to addr, or nil.
func (p *connPool) get(addr string) *peerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	pc := conns[len(conns)-1]
	if time.Since(pc.idleAt) >= idleConnTimeout {
		// The newest is too old, so all are.
		closeAll(conns)
		delete(p.idle, addr)
		return nil
	}
	conns[len(conns)-1] = nil
	p.idle[addr] = conns[:len(conns)-1]
	return pc
}

// put hands a connection back after a completely read reply.
func (p *connPool) put(addr string, pc *peerConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[addr]) >= maxIdlePerHost {
		_ = pc.c.Close()
		return
	}
	pc.idleAt = time.Now()
	p.idle[addr] = append(p.idle[addr], pc)
	if !p.sweeping {
		p.sweeping = true
		time.AfterFunc(idleConnTimeout, p.sweep)
	}
}

// sweep closes the connections idle for idleConnTimeout and reschedules
// itself for as long as any are left.
func (p *connPool) sweep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	next := idleConnTimeout
	for addr, conns := range p.idle {
		n := 0
		for n < len(conns) && now.Sub(conns[n].idleAt) >= idleConnTimeout {
			n++
		}
		closeAll(conns[:n])
		if n == len(conns) {
			delete(p.idle, addr)
			continue
		}
		p.idle[addr] = append(conns[:0], conns[n:]...)
		if left := idleConnTimeout - now.Sub(conns[0].idleAt); left < next {
			next = left
		}
	}
	p.sweeping = len(p.idle) > 0
	if p.sweeping {
		time.AfterFunc(next, p.sweep)
	}
}

// closeIdle closes the idle connections to the given dial addresses.
func (p *connPool) closeIdle(addrs []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, addr := range addrs {
		closeAll(p.idle[addr])
		delete(p.idle, addr)
	}
}

func closeAll(conns []*peerConn) {
	for i, pc := range conns {
		_ = pc.c.Close()
		conns[i] = nil
	}
}

// closeIdlePeerConns closes the pool's idle connections to every address a
// cluster config names. The nodes' Close methods call it: a node that
// leaves must not keep sockets to its cluster open until the idle timeout.
func closeIdlePeerConns(cfg ClusterConfig) {
	addrs := make([]string, 0, len(cfg.Addrs)+len(cfg.ShieldAddrs)+1)
	add := func(base string) {
		if host, _, ok := splitPlainHTTP(base); ok {
			addrs = append(addrs, dialAddr(host))
		}
	}
	for _, base := range cfg.Addrs {
		add(base)
	}
	for _, base := range cfg.ShieldAddrs {
		add(base)
	}
	add(cfg.OriginAddr)
	peerConns.closeIdle(addrs)
}

// splitPlainHTTP splits an http:// URL into its host (the Host header and
// the breaker key) and its request target, without allocating. ok is false
// for every URL the exchange leaves to net/http: another scheme, userinfo,
// a query without a path, a fragment, or any byte net/url would escape or
// refuse — so what the exchange puts on the request line is what net/http
// would have put there.
func splitPlainHTTP(rawurl string) (host, target string, ok bool) {
	rest, found := strings.CutPrefix(rawurl, "http://")
	if !found {
		return "", "", false
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		host, target = rest, "/"
	} else {
		host, target = rest[:slash], rest[slash:]
	}
	if host == "" || !allOf(host, &hostBytes) || !allOf(target, &targetBytes) {
		return "", "", false
	}
	return host, target, true
}

// The bytes of a host, of a request target net/url leaves as they are, and
// of a header field name (RFC 9110 token).
var (
	hostBytes   = alnumAnd(".-:[]")
	targetBytes = alnumAnd("-_.~%!$&'()*+,;=:@/?")
	tokenBytes  = alnumAnd("!#$%&'*+-.^_`|~")
)

func alnumAnd(extra string) (set [256]bool) {
	for _, c := range "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" + extra {
		set[c] = true
	}
	return set
}

// dialAddr is the host with the scheme's default port when it names none.
func dialAddr(host string) string {
	if strings.LastIndexByte(host, ':') > strings.LastIndexByte(host, ']') {
		return host
	}
	return host + ":80"
}

// headerSafe reports whether a value can be written into a header line as
// it is (net/http refuses the others).
func headerSafe(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// wireReply is what one exchange learned from the peer, besides the body.
type wireReply struct {
	status int
	// retryMs and retrySecs are a 429's two hints, as sent.
	retryMs, retrySecs string
	// reusable: the reply was well-formed and read to its end, the peer
	// keeps the connection open and nothing is left buffered.
	reusable bool
}

// exchange is one attempt of one call over a pooled connection. The only
// recovery it makes is to dial once when a connection taken from the pool
// turns out to have been closed by the peer while it sat there: no reply
// byte had arrived, so nothing is known to have been served twice that
// HTTPTransport.do's own replay of any method would not also serve twice.
func (t *HTTPTransport) exchange(ctx context.Context, c peerCall, body []byte, out any) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("node: %s %s: %w", c.method, c.url, err)
	}
	tenant := TenantFromContext(ctx)
	if !headerSafe(tenant) {
		return fmt.Errorf("node: %s %s: invalid %s value %q", c.method, c.url, TenantHeader, tenant)
	}
	deadline := time.Now().Add(t.opts.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	addr := dialAddr(c.host)
	buf := getBuf()
	defer putBuf(buf)
	pc := peerConns.get(addr)
	for {
		reused := pc != nil
		if !reused {
			var err error
			if pc, err = dialPeer(ctx, addr, deadline); err != nil {
				return fmt.Errorf("node: %s %s: %w", c.method, c.url, exchangeErr(ctx, err))
			}
		}
		buf.Reset()
		pc.br, pc.bw = getReader(pc.c), getWriter(pc.c)
		rep, started, err := pc.roundTrip(ctx, deadline, c, tenant, body, buf, out != nil)
		pc.release()
		if err == nil {
			if rep.reusable {
				peerConns.put(addr, pc)
			} else {
				_ = pc.c.Close()
			}
			return replyResult(c.method, c.url, rep.status, rep.retryMs, rep.retrySecs, buf.Bytes(), out)
		}
		_ = pc.c.Close()
		if reused && !started && ctx.Err() == nil && !isTimeout(err) {
			pc = nil
			continue
		}
		return fmt.Errorf("node: %s %s: %w", c.method, c.url, exchangeErr(ctx, err))
	}
}

func dialPeer(ctx context.Context, addr string, deadline time.Time) (*peerConn, error) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &peerConn{c: conn}, nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// exchangeErr names the cause of a failed exchange as doJSON's callers know
// it: the context's own error when the context ended, a deadline error when
// the attempt's time ran out, the I/O error otherwise.
func exchangeErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if isTimeout(err) {
		return context.DeadlineExceeded
	}
	return err
}

// longAgo is a deadline in the past: setting it fails the connection's
// pending and future I/O at once.
var longAgo = time.Unix(1, 0)

// roundTrip writes one request and reads its reply. started reports
// whether any reply byte arrived. A nil error means a reply was read as far
// as the caller needs it; rep.reusable says whether the connection can
// carry another.
func (pc *peerConn) roundTrip(ctx context.Context, deadline time.Time, c peerCall, tenant string, body []byte, buf *bytes.Buffer, decode bool) (rep wireReply, started bool, err error) {
	_ = pc.c.SetDeadline(deadline)
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = pc.c.SetDeadline(longAgo) })
		defer func() {
			if !stop() {
				// The context ended: its callback may still be about to
				// touch the connection, which therefore has no next user.
				rep.reusable = false
			}
		}()
	}

	bw := pc.bw
	bw.WriteString(c.method)
	bw.WriteByte(' ')
	bw.WriteString(c.target)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(c.host)
	bw.WriteString("\r\n")
	if body != nil {
		bw.WriteString("Content-Type: application/json\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(body)), 10))
		bw.WriteString("\r\n")
	}
	// The caller's remaining budget, so downstream queue waiters whose
	// caller gave up stop consuming slots.
	if ms := int64(time.Until(deadline) / time.Millisecond); ms > 0 {
		bw.WriteString(DeadlineHeader + ": ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), ms, 10))
		bw.WriteString("\r\n")
	}
	if tenant != "" {
		bw.WriteString(TenantHeader + ": ")
		bw.WriteString(tenant)
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(body)
	if err := bw.Flush(); err != nil {
		return rep, false, err
	}

	if _, err := pc.br.Peek(1); err != nil {
		return rep, false, err
	}
	keepAlive, length, chunked, err := pc.readHead(&rep)
	if err != nil {
		return rep, true, err
	}

	// A 2xx body the caller decodes is the call's result; any other body
	// is read for the error text or only to keep the connection.
	wanted := rep.status/100 == 2 && decode
	keep := replyKeep(rep.status, decode)
	var src io.Reader
	switch {
	case rep.status == 204 || rep.status == 304:
		chunked = false // no body, whatever the headers say
	case chunked:
		src = httputil.NewChunkedReader(pc.br)
	case length >= 0:
		pc.lim = io.LimitedReader{R: pc.br, N: length}
		src = &pc.lim
	default:
		// Neither length nor chunking: the body runs until the peer closes.
		src, keepAlive = pc.br, false
	}
	complete := true
	if src != nil {
		var truncated bool
		complete, truncated, err = readBody(src, buf, keep)
		switch {
		case err != nil:
		case src == &pc.lim && pc.lim.N > 0:
			err = io.ErrUnexpectedEOF
		case truncated && wanted:
			err = fmt.Errorf("reply body over %d bytes", keep)
		}
		if err != nil {
			if wanted {
				return rep, true, err
			}
			complete = false // the status is the result; the cut costs the connection
		}
	}
	if complete && chunked {
		// The chunked reader stops after the last chunk's size line; the
		// CRLF that ends the body is still to come. A trailer in its place
		// is not read: the connection is closed instead.
		line, lerr := pc.br.ReadSlice('\n')
		complete = lerr == nil && string(line) == "\r\n"
	}
	rep.reusable = complete && keepAlive && pc.br.Buffered() == 0
	return rep, true, nil
}

// readBody appends the first keep bytes of a body to buf and discards the
// rest, up to maxDrainBytes. complete reports whether the body's end was
// reached, truncated whether it had more than keep bytes; err is a failure
// to read the kept part.
func readBody(body io.Reader, buf *bytes.Buffer, keep int64) (complete, truncated bool, err error) {
	eof, err := readInto(buf, body, keep)
	if err != nil || eof {
		return eof, false, err
	}
	n, err := io.CopyN(io.Discard, body, maxDrainBytes+1)
	return err == io.EOF, n > 0, nil
}

// readInto appends r to buf until r ends (eof) or limit bytes are in.
func readInto(buf *bytes.Buffer, r io.Reader, limit int64) (eof bool, err error) {
	for limit > 0 {
		buf.Grow(512)
		b := buf.AvailableBuffer()
		b = b[:min(int64(cap(b)), limit)]
		n, err := r.Read(b)
		buf.Write(b[:n])
		limit -= int64(n)
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// readHead reads a reply's status line and header block. length is -1
// without a Content-Length. It accepts less than net/http does — HTTP/1.0
// and 1.1 only, final statuses only, no folded lines, no line over the read
// buffer — and everything it refuses is an error that closes the connection.
func (pc *peerConn) readHead(rep *wireReply) (keepAlive bool, length int64, chunked bool, err error) {
	line, err := pc.br.ReadSlice('\n')
	if err != nil {
		return false, 0, false, headErr(err)
	}
	// "HTTP/1.x NNN", then a space and the reason or nothing.
	line = trimEOL(line)
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[7] != '0' && line[7] != '1' ||
		line[8] != ' ' || len(line) > 12 && line[12] != ' ' {
		return false, 0, false, fmt.Errorf("%w: status line %q", errMalformedReply, line)
	}
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return false, 0, false, fmt.Errorf("%w: status line %q", errMalformedReply, line)
		}
		rep.status = rep.status*10 + int(d-'0')
	}
	if rep.status < 200 {
		return false, 0, false, fmt.Errorf("%w: status %d", errMalformedReply, rep.status)
	}
	http10 := line[7] == '0'
	length = -1
	var sawClose, sawKeepAlive bool
	for n := 0; ; n++ {
		if line, err = pc.br.ReadSlice('\n'); err != nil {
			return false, 0, false, headErr(err)
		}
		if line = trimEOL(line); len(line) == 0 {
			// An HTTP/1.1 peer keeps the connection unless it says close; an
			// HTTP/1.0 peer closes it unless it says keep-alive.
			return !sawClose && (!http10 || sawKeepAlive), length, chunked, nil
		}
		colon := bytes.IndexByte(line, ':')
		if n >= maxHeaderLines || colon <= 0 || !isToken(line[:colon]) {
			return false, 0, false, fmt.Errorf("%w: header line %q", errMalformedReply, line)
		}
		name, val := line[:colon], bytes.Trim(line[colon+1:], " \t")
		switch {
		case foldEq(name, "content-length"):
			v, ok := parseLength(val)
			if !ok || length >= 0 && v != length {
				return false, 0, false, fmt.Errorf("%w: Content-Length %q", errMalformedReply, val)
			}
			length = v
		case foldEq(name, "transfer-encoding"):
			// net/http ignores the header from an HTTP/1.0 peer; a peer that
			// sends it is not one to guess about.
			if chunked || http10 || !foldEq(val, "chunked") {
				return false, 0, false, fmt.Errorf("%w: Transfer-Encoding %q", errMalformedReply, val)
			}
			chunked = true
		case foldEq(name, "connection"):
			for len(val) > 0 {
				var tok []byte
				tok, val, _ = bytes.Cut(val, []byte(","))
				tok = bytes.Trim(tok, " \t")
				sawClose = sawClose || foldEq(tok, "close")
				sawKeepAlive = sawKeepAlive || foldEq(tok, "keep-alive")
			}
		case foldEq(name, "retry-after"):
			rep.retrySecs = string(val)
		case foldEq(name, RetryAfterMsHeader):
			rep.retryMs = string(val)
		}
	}
}

// headErr names a failure to read a line of the head: a line longer than
// the read buffer is the peer's fault, not the network's.
func headErr(err error) error {
	if errors.Is(err, bufio.ErrBufferFull) {
		return fmt.Errorf("%w: line over the read buffer", errMalformedReply)
	}
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// trimEOL removes a line's "\n" and the "\r" before it.
func trimEOL(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r"))
}

// foldEq reports whether b and s are equal under ASCII case folding.
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if lower(c) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// isToken reports whether b is a header field name.
func isToken(b []byte) bool {
	for _, c := range b {
		if !tokenBytes[c] {
			return false
		}
	}
	return len(b) > 0
}

// parseLength parses a Content-Length: decimal digits only.
func parseLength(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}
