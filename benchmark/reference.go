package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"
)

// reference is the yardstick the closed phase is read against: a bare
// net/http server in this process that answers GET /doc with a small JSON
// document, driven by the same generator code with the same number of
// callers. It shares nothing with the program under test but the Go
// standard library, so a change to the program moves the program's numbers
// and not the yardstick's, while whatever slows the box slows both: on this
// box the same binary reads a quarter slower for tens of minutes at a time
// (README, "Noise"), and the closed phase's numbers are published as
// multiples of the reference's, measured in alternating blocks.
type reference struct {
	srv    *httptest.Server
	pool   *wirePool
	target string
	// blockOps is how many requests each caller sends in one block.
	blockOps int
}

// refDoc is the reference's reply: the shape of a node's DocResponse.
type refDoc struct {
	Doc struct {
		URL     string `json:"url"`
		Size    int64  `json:"size"`
		Version uint64 `json:"version"`
	} `json:"doc"`
	Source string `json:"source"`
	Stored bool   `json:"stored"`
}

// refOpsPerSecond sizes a reference block by the run's -seconds: 2400
// requests per caller in a 16 s run, about 0.08 s with two callers. The
// seventeen blocks of a closed phase are then 8% of the run.
const refOpsPerSecond = 150

func startReference(seconds float64) (*reference, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /doc", func(w http.ResponseWriter, r *http.Request) {
		var d refDoc
		d.Doc.URL, d.Doc.Size, d.Doc.Version = r.URL.Query().Get("url"), 4096, 1
		d.Source, d.Stored = "local", true
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d)
	})
	ref := &reference{
		srv: httptest.NewServer(mux), target: "/doc?url=http%3A%2F%2Freference%2Fdoc%2F1",
		blockOps: int(refOpsPerSecond * seconds),
	}
	ref.pool = newWirePool(ref.srv.URL)
	if err := ref.pool.prime(primedConns); err != nil {
		ref.close()
		return nil, err
	}
	return ref, nil
}

func (r *reference) close() {
	r.pool.close()
	r.srv.Close()
}

// refStat is one reference block: OK replies per second over all callers,
// and the median latency of one request in nanoseconds.
type refStat struct {
	rate  float64
	p50Ns int64
	bad   int // requests that did not come back as a 200 with the URL asked
}

// block sends blockOps requests from each of workers callers, each waiting
// for its reply before the next.
func (r *reference) block(workers int) refStat {
	lat := make([]int64, workers*r.blockOps)
	bad := make([]int, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < r.blockOps; i++ {
				t := time.Now()
				var d refDoc
				code, err := r.pool.roundTrip(r.target, nil, (*wireConn).receive, &d)
				if err != nil || code != http.StatusOK || d.Doc.URL != "http://reference/doc/1" {
					bad[w]++
				}
				lat[w*r.blockOps+i] = int64(time.Since(t))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	st := refStat{}
	for _, n := range bad {
		st.bad += n
	}
	slices.Sort(lat)
	st.rate = float64(len(lat)-st.bad) / wall.Seconds()
	st.p50Ns = lat[len(lat)/2]
	return st
}
