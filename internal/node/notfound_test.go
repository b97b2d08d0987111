package node

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// tickClock reads one millisecond later at every look (its timers are real):
// every origin fetch then takes the adaptive limiter about the same time,
// so a limit that ends lower than it began was lowered by fetches reported
// as failed and not by this machine's jitter.
type tickClock struct {
	realClock
	looks atomic.Int64
}

func (c *tickClock) Now() time.Time                  { return time.Unix(0, c.looks.Add(1)*int64(time.Millisecond)) }
func (c *tickClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// TestUnknownURLIsAnAnswerNotAnOutage: 200 requests for documents the origin
// does not have, at one node, single-tier and behind a shield. Each is a 404
// from the origin and must stay one on the way down: no tier may turn it
// into a gateway error that is retried with backoff, charged to a breaker
// or reported to the origin-fetch limiter as a failure, and the node keeps
// no access monitor for a URL that names nothing.
func TestUnknownURLIsAnAnswerNotAnOutage(t *testing.T) {
	for _, shields := range [][]string{nil, {"s0"}} {
		t.Run(fmt.Sprintf("shields=%d", len(shields)), func(t *testing.T) {
			checkLeaks(t)
			lc, err := StartLocalCluster([]string{"a", "b", "c", "d"}, 2, testCatalog(20), ClusterConfig{Shields: shields, Clock: &tickClock{}})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			a := lc.Caches["a"]
			get := func(url string) int {
				t.Helper()
				resp, err := http.Get(lc.Cfg.Addrs["a"] + "/doc?url=" + queryEscape(url))
				if err != nil {
					t.Fatal(err)
				}
				_ = resp.Body.Close()
				return resp.StatusCode
			}
			limit := a.Admission().Limit
			start := time.Now()
			for i := 0; i < 200; i++ {
				url := fmt.Sprintf("http://nowhere/doc/%03d", i)
				if status := get(url); status != http.StatusNotFound {
					t.Fatalf("unknown URL %d answered %d, want 404", i, status)
				}
				if rate := a.store.AccessRate(url, a.now()); rate != 0 {
					t.Fatalf("unknown URL %d left a monitor behind (rate %v)", i, rate)
				}
			}
			elapsed := time.Since(start)
			t.Logf("200 unknown URLs in %v", elapsed)
			if elapsed > 2*time.Second {
				t.Errorf("200 unknown URLs took %v: something on the way treats a 404 as an outage", elapsed)
			}
			if st := a.Admission(); st.Limit < limit || st.Failed != 200 || st.Requests != 200 {
				t.Errorf("limiter limit %d → %d, %d of %d requests failed; want the limit no lower and each 404 counted once",
					limit, st.Limit, st.Failed, st.Requests)
			}
			for name, n := range lc.Caches {
				if opened := n.circuitOpen.Value(); opened != 0 {
					t.Errorf("node %s opened a circuit %d times over 404s", name, opened)
				}
			}
			if status := get(testCatalog(20)[3].URL); status != http.StatusOK {
				t.Errorf("a known document answered %d right after", status)
			}
		})
	}
}
