package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/rcm/service"
	"repro/rcm/service/cluster"
)

// httpServer is one handler on a real loopback listener.
type httpServer struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// fleet is an in-process rcmproxy (default config, hot cache off) fronting
// two default-config replicas, each a Service behind service.NewHandler.
type fleet struct {
	svcs    []*service.Service
	servers []*httpServer // replicas, then the proxy's front end
	proxy   *cluster.Proxy
	url     string
}

const replicas = 2

// startFleet starts the fleet. With a tracer, the proxy, its upstream
// client and the replicas are wrapped to record spans.
func startFleet(cacheBytes int64, tr *tracer) (*fleet, error) {
	f := &fleet{}
	cfg := cluster.Config{}
	hostID := map[string]string{}
	for i := range replicas {
		svc := service.New(service.Config{CacheBytes: cacheBytes})
		f.svcs = append(f.svcs, svc)
		id := "r" + strconv.Itoa(i)
		var h http.Handler = service.NewHandler(svc)
		if tr != nil {
			h = tr.wrapReplica(id, h)
		}
		s, err := listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		cfg.Replicas = append(cfg.Replicas, cluster.Replica{ID: id, URL: s.url})
		hostID[s.url[len("http://"):]] = id
	}
	if tr != nil {
		cfg.Client = &http.Client{Transport: upstreamRT{t: tr, next: http.DefaultTransport, replica: hostID}}
	}
	p, err := cluster.New(cfg)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting proxy: %w", err)
	}
	f.proxy = p
	var h http.Handler = p
	if tr != nil {
		h = tr.wrapProxy(p)
	}
	s, err := listen(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, s)
	f.url = s.url
	return f, nil
}

func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	for _, s := range f.svcs {
		s.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// fleetCounters are the replicas' summed service counters and the proxy's
// routing counters, read around the traced phase.
type fleetCounters struct {
	svc   service.Stats
	route cluster.RoutingStats
}

func (f *fleet) counters() fleetCounters {
	c := fleetCounters{route: f.proxy.RoutingStats()}
	for _, s := range f.svcs {
		st := s.Stats()
		c.svc.Hits += st.Hits
		c.svc.Misses += st.Misses
		c.svc.Dedups += st.Dedups
		c.svc.Evictions += st.Evictions
		c.svc.Jobs += st.Jobs
	}
	return c
}

// serving is the serve-hit or serve-miss workload: nproc closed-loop
// clients POST suite bodies through the fleet. A round sends every analog
// three times as RCMB and once as Matrix Market, in groups of four (three
// RCMB bodies, then one Matrix Market body) over a seeded order of the
// analogs. Identical requests are ten or more apart, so they never coalesce
// in the proxy, and the formats interleave the same way for every seed.
type serving struct {
	seed    int64
	miss    bool
	in      []input
	fl      *fleet
	clients int
	hc      *http.Client
	tr      *tracer
}

const slotsPerInput = 4 // 3 RCMB : 1 Matrix Market

// missCacheBytes is the serve-miss replica cache budget: about ten
// permutations of a scale-2 analog, so every insert evicts once warm.
const missCacheBytes = 1 << 20

func (s *serving) roundLen() int { return len(s.in) * slotsPerInput }

// request maps a global request index to its analog, body format and, on
// serve-miss, a start vertex never used before in the run (the warm-up
// takes n-1, the timed requests count up from 0). Slot v of group grp
// takes the analog at position grp + v·n/3 of the round's order for the
// RCMB slots and grp for the Matrix Market slot, so each analog fills each
// slot once per round.
func (s *serving) request(g int64) (in int, mm bool, start int) {
	rl, n := int64(s.roundLen()), int64(len(s.in))
	r, pos := g/rl, g%rl
	grp, v := pos/slotsPerInput, pos%slotsPerInput
	k := grp
	if v < slotsPerInput-1 {
		k = (grp + v*n/(slotsPerInput-1)) % n
	}
	in = shuffled(s.seed, r, len(s.in))[k]
	start = -1
	if s.miss {
		start = int((int64(slotsPerInput)*r + int64(v)) % int64(s.in[in].a.N()-1))
	}
	return in, v == slotsPerInput-1, start
}

// post sends one order request through the fleet and records it.
func (s *serving) post(g int64, in int, mm bool, start int, want string) output {
	body, ct := s.in[in].body(mm)
	u := s.fl.url + "/v1/order"
	if start >= 0 {
		u += "?start=" + strconv.Itoa(start)
	}
	o := output{ref: refKey{input: in, start: start}, bodyLen: len(body)}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		o.fail = err.Error()
		return o
	}
	req.Header.Set("Content-Type", ct)
	if s.tr.enabled() {
		req.Header.Set(reqHeader, strconv.FormatInt(g, 10))
	}
	o.lat = s.tr.call("client", "POST /v1/order", g, func() {
		resp, err := s.hc.Do(req)
		if err != nil {
			o.fail = err.Error()
			return
		}
		defer resp.Body.Close()
		o.raw, err = io.ReadAll(resp.Body)
		switch {
		case err != nil:
			o.fail = err.Error()
		case resp.StatusCode != http.StatusOK:
			o.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(o.raw))
		case want != "" && resp.Header.Get("X-Cache") != want:
			o.fail = fmt.Sprintf("X-Cache %q, want %q", resp.Header.Get("X-Cache"), want)
		}
	})
	o.done, o.cpu = time.Now(), processCPU()
	return o
}

// warm fills the replica caches: on serve-hit with the working set, on
// serve-miss with keys the timed phase never repeats.
func (s *serving) warm() error {
	for i := range s.in {
		start := -1
		if s.miss {
			start = s.in[i].a.N() - 1
		}
		if o := s.post(-1, i, false, start, ""); o.fail != "" {
			return fmt.Errorf("warming %s: %s", s.in[i].name, o.fail)
		}
	}
	return nil
}

// loop runs the clients until d has passed and the current round is
// complete, so every phase sends the same body mix. first is the global
// index of the phase's first request; the index after its last is returned.
// Indices are handed out under a lock that also fixes the stop, so every
// index below the stop is sent and none at or above it.
func (s *serving) loop(d time.Duration, first int64) ([]output, int64) {
	want := "hit"
	if s.miss {
		want = "miss"
	}
	rl := int64(s.roundLen())
	var mu sync.Mutex
	var next int64
	stop := int64(math.MaxInt64)
	deadline := time.Now().Add(d)
	take := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop == math.MaxInt64 && !time.Now().Before(deadline) {
			stop = max(rl, (next+rl-1)/rl*rl)
		}
		if next >= stop {
			return 0, false
		}
		next++
		return next - 1, true
	}
	outs := make([][]output, s.clients)
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, ok := take(); ok; k, ok = take() {
				in, mm, start := s.request(first + k)
				outs[c] = append(outs[c], s.post(first+k, in, mm, start, want))
			}
		}()
	}
	wg.Wait()
	var all []output
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, first + stop
}
