package main

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sent records one request of a closed-loop phase. Response bodies are
// kept raw and parsed after the phase, so the generator's JSON work
// stays out of the timed interval.
type sent struct {
	start   time.Duration // since the phase began
	latency time.Duration
	status  int // 0: transport error
	errText string
	resp    int // response body in the loader's bodyStore; -1 if none
	// lo and hi bracket the schedule states a read may have been
	// answered under: the updates acknowledged when it was sent and the
	// updates initiated when its response arrived.
	lo, hi int
}

// bodyStore interns response bodies: repeated requests mostly get
// byte-identical answers, which are kept and checked once.
type bodyStore struct {
	mu     sync.Mutex
	ids    map[string]int
	bodies [][]byte
}

// intern returns the id of a body, storing a copy of it if it is new.
func (s *bodyStore) intern(b []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.ids[string(b)]; ok {
		return i
	}
	s.bodies = append(s.bodies, bytes.Clone(b))
	s.ids[string(b)] = len(s.bodies) - 1
	return len(s.bodies) - 1
}

func (s *bodyStore) body(i int) []byte {
	if i < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bodies[i]
}

// loader sends requests to one daemon over keep-alive connections.
type loader struct {
	client *http.Client
	base   string
	store  *bodyStore
	// initiated counts updates whose PUT has been issued, acked the ones
	// answered 200; together they bracket each read's legal states.
	initiated, acked atomic.Int64
}

func newLoader(base string, clients int) *loader {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	store := &bodyStore{ids: map[string]int{}}
	return &loader{client: &http.Client{Transport: tr}, base: base, store: store}
}

func (d *loader) close() { d.client.CloseIdleConnections() }

func (d *loader) url(r *request) (string, string) {
	prefix := d.base + "/v1/venues/" + venueID
	switch r.kind {
	case kindBatch:
		return http.MethodPost, prefix + "/route:batch"
	case kindUpdate:
		return http.MethodPut, prefix + "/schedules"
	}
	return http.MethodPost, prefix + "/route"
}

// send issues one request and records its outcome. The response is read
// into buf, which each client reuses, so only new bodies allocate.
func (d *loader) send(r *request, t0 time.Time, buf *bytes.Buffer) sent {
	s := sent{lo: int(d.acked.Load()), resp: -1}
	if r.kind == kindUpdate {
		d.initiated.Add(1)
	}
	method, url := d.url(r)
	start := time.Now()
	s.start = start.Sub(t0)
	req, err := http.NewRequest(method, url, bytes.NewReader(r.body))
	if err != nil {
		s.errText = err.Error()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	buf.Reset()
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.latency = time.Since(start)
	s.hi = int(d.initiated.Load())
	if err != nil {
		s.status = 0
		s.errText = err.Error()
		return s
	}
	if r.kind == kindUpdate && s.status == http.StatusOK {
		d.acked.Add(1)
	}
	s.resp = d.store.intern(buf.Bytes())
	return s
}

// numbered is one request of a stream with its position in it.
type numbered struct {
	i int
	r request
}

// fromSlice feeds a fixed request list.
func fromSlice(reqs []request) <-chan numbered {
	ch := make(chan numbered, len(reqs))
	for i := range reqs {
		ch <- numbered{i, reqs[i]}
	}
	close(ch)
	return ch
}

// closedLoop runs clients goroutines, each taking the next request of
// the feed as soon as its previous one is answered, until the feed is
// closed or, with a non-zero deadline, the deadline has passed. A
// non-nil after is called with each request's position once it is
// answered. It returns the requests taken, which are a prefix of the
// feed, and their records, both in feed order.
func (d *loader) closedLoop(feed <-chan numbered, clients int, deadline time.Time, after func(int)) ([]request, []sent, time.Duration) {
	type taken struct {
		n numbered
		s sent
	}
	per := make([][]taken, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				n, ok := <-feed
				if !ok {
					return
				}
				per[c] = append(per[c], taken{n, d.send(&n.r, t0, &buf)})
				if after != nil {
					after(n.i)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	count := 0
	for _, ts := range per {
		count += len(ts)
	}
	reqs, recs := make([]request, count), make([]sent, count)
	for _, ts := range per {
		for _, t := range ts {
			reqs[t.n.i], recs[t.n.i] = t.n.r, t.s
		}
	}
	return reqs, recs, elapsed
}
