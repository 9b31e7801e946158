package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by a wrapper in
// this package around a call into that layer's public API.
type span struct {
	id, parent int    // parent 0 = root
	req        int64  // request (operation) id; -1 until linked
	phase      string // "path" (the traced closed loop) or "probe"
	layer      string // repo module the call enters
	name       string // the wrapped function or route
	key        string // X-RCM-Key, for linking proxy-side spans
	replica    string // replica ID, for linking replica spans
	start, end int64  // ns since the tracer's epoch
}

// tracer keeps spans in memory; they are analysed and written out once the
// run ends. A nil tracer records nothing, and recording can be paused so
// one fleet serves both the traced and the untraced reference phase.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	phase atomic.Value // string
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.phase.Store("path")
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records one span; parent links are resolved later by link.
func (t *tracer) add(s span) {
	if !t.enabled() {
		return
	}
	s.phase = t.phase.Load().(string)
	t.mu.Lock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times f as one span and returns its duration; with tracing off it
// only times.
func (t *tracer) call(layer, name string, req int64, f func()) time.Duration {
	if !t.enabled() {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	s := span{req: req, layer: layer, name: name, start: t.now()}
	f()
	s.end = t.now()
	t.add(s)
	return time.Duration(s.end - s.start)
}

// reqHeader carries the benchmark's request id from a client to the proxy
// wrapper. The proxy does not forward it, so upstream and replica spans are
// tied to their request by X-RCM-Key and time overlap instead.
const reqHeader = "X-Bench-Req"

// wrapProxy records a cluster span around Proxy.ServeHTTP for each order
// request, keyed by the cache key the proxy answers with.
func (t *tracer) wrapProxy(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() || r.URL.Path != "/v1/order" {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		s := span{req: req, layer: "cluster", name: "Proxy.ServeHTTP", start: t.now()}
		h.ServeHTTP(w, r)
		s.end, s.key = t.now(), w.Header().Get("X-RCM-Key")
		t.add(s)
	})
}

// wrapReplica records an http span around a replica's service.NewHandler.
func (t *tracer) wrapReplica(id string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() || r.URL.Path != "/v1/order" {
			h.ServeHTTP(w, r)
			return
		}
		s := span{req: -1, layer: "http", name: "service.NewHandler", key: r.Header.Get("X-RCM-Key"), replica: id, start: t.now()}
		h.ServeHTTP(w, r)
		s.end = t.now()
		t.add(s)
	})
}

// upstreamRT is the proxy's cluster.Config.Client transport in traced runs:
// an upstream span runs from the proxy's request to the end of the replica's
// response body.
type upstreamRT struct {
	t       *tracer
	next    http.RoundTripper
	replica map[string]string // host:port -> replica ID
}

func (u upstreamRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if !u.t.enabled() || r.URL.Path != "/v1/order" {
		return u.next.RoundTrip(r)
	}
	s := span{req: -1, layer: "upstream", name: "RoundTrip", key: r.Header.Get("X-RCM-Key"), replica: u.replica[r.URL.Host], start: u.t.now()}
	resp, err := u.next.RoundTrip(r)
	if err != nil {
		s.end = u.t.now()
		u.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: u.t, s: s}
	return resp, nil
}

// spanBody ends its upstream span when the body is exhausted or closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// link resolves parents. Spans that carry a request id hang under that
// request's root (the span with the smallest start); an upstream span hangs
// under the cluster span with its key that overlaps it most, and a replica
// span under the upstream span with its key and replica that overlaps it
// most. A linked span inherits its parent's request id.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	ss := t.spans
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	root := map[string]map[int64]int{} // phase -> req -> root id
	byLayerKey := map[string][]int{}   // layer|key -> span indices
	for i := range ss {
		s := &ss[i]
		if s.req >= 0 {
			m := root[s.phase]
			if m == nil {
				m = map[int64]int{}
				root[s.phase] = m
			}
			if r, ok := m[s.req]; ok {
				s.parent = r
			} else {
				m[s.req] = s.id
			}
		}
		byLayerKey[s.layer+"|"+s.key] = append(byLayerKey[s.layer+"|"+s.key], i)
	}
	best := func(s *span, layer string) *span {
		var pick *span
		var most int64
		for _, j := range byLayerKey[layer+"|"+s.key] {
			c := &ss[j]
			if s.replica != "" && c.replica != "" && c.replica != s.replica {
				continue
			}
			if ov := min(s.end, c.end) - max(s.start, c.start); ov > most {
				pick, most = c, ov
			}
		}
		return pick
	}
	// Upstream spans first, so replica spans inherit a linked request id.
	for _, pair := range [][2]string{{"upstream", "cluster"}, {"http", "upstream"}} {
		for i := range ss {
			s := &ss[i]
			if s.layer != pair[0] || s.req >= 0 {
				continue
			}
			if p := best(s, pair[1]); p != nil {
				s.parent, s.req = p.id, p.req
			}
		}
	}
	return ss
}

// selfTimes returns, per layer, the summed self time (duration minus the
// part covered by child spans) of the spans of one phase, and the summed
// self time of that phase's roots, which is left unattributed.
func selfTimes(ss []span, phase string) (layers map[string]time.Duration, unattributed time.Duration) {
	childCover := map[int]int64{}
	for _, s := range ss {
		if s.phase == phase && s.parent != 0 {
			childCover[s.parent] += s.end - s.start
		}
	}
	layers = map[string]time.Duration{}
	for _, s := range ss {
		if s.phase != phase {
			continue
		}
		self := time.Duration(max(s.end-s.start-childCover[s.id], 0))
		if s.parent == 0 && s.layer == "client" {
			unattributed += self
		} else {
			layers[s.layer] += self
		}
	}
	return layers, unattributed
}

// meanDur returns the mean duration of the spans of one phase matching
// layer and name ("" matches any name), and their count.
func meanDur(ss []span, phase, layer, name string) (time.Duration, int) {
	var sum int64
	n := 0
	for _, s := range ss {
		if s.phase == phase && s.layer == layer && (name == "" || s.name == name) {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return time.Duration(sum / int64(n)), n
}

// writeSpans exports spans as JSON lines sorted by phase, request, depth
// and layer, with request ids counted from each phase's first request and
// times in µs from the start of their request's root, so two runs of the
// same seed line up span for span under a plain diff.
func writeSpans(path string, ss []span) error {
	byID := make(map[int]*span, len(ss))
	firstReq := map[string]int64{}
	for i := range ss {
		s := &ss[i]
		byID[s.id] = s
		if r, ok := firstReq[s.phase]; s.req >= 0 && (!ok || s.req < r) {
			firstReq[s.phase] = s.req
		}
	}
	depth := func(s *span) int {
		d := 0
		for s.parent != 0 {
			s = byID[s.parent]
			d++
		}
		return d
	}
	rootStart := func(s *span) int64 {
		for s.parent != 0 {
			s = byID[s.parent]
		}
		return s.start
	}
	type row struct {
		s     *span
		depth int
	}
	rows := make([]row, len(ss))
	for i := range ss {
		rows[i] = row{&ss[i], depth(&ss[i])}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.s.phase != b.s.phase {
			return a.s.phase < b.s.phase // "path" before "probe"
		}
		if a.s.req != b.s.req {
			return a.s.req < b.s.req
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.s.layer < b.s.layer
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range rows {
		s, r0 := r.s, rootStart(r.s)
		parentLayer := ""
		if p := byID[s.parent]; p != nil {
			parentLayer = p.layer
		}
		req := s.req
		if req >= 0 {
			req -= firstReq[s.phase]
		}
		fmt.Fprintf(w, `{"phase":%q,"req":%d,"depth":%d,"layer":%q,"name":%q,"parent":%q,"replica":%q,"start_us":%.1f,"end_us":%.1f}`+"\n",
			s.phase, req, r.depth, s.layer, s.name, parentLayer, s.replica,
			float64(s.start-r0)/1e3, float64(s.end-r0)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
