package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/labels"
	"timeunion/internal/obs"
	"timeunion/internal/remote"
)

// span is one timed region at a layer boundary. Parent is -1 for a root:
// a client request, the drain, or background store work. Spans that
// aggregate many calls of one request (per-sample appends) carry the call
// count in N and stand for the summed call time: End = Start + busy.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"` // root span id of the request, -1 for background
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Query spans only: the engine's own per-stage aggregates
	// (obs.Trace) and the result size.
	Stages  map[string]stageAgg `json:"stages,omitempty"`
	Series  int                 `json:"series,omitempty"`
	Samples int                 `json:"samples,omitempty"`
}

type stageAgg struct {
	Count int   `json:"count"`
	NS    int64 `json:"ns"`
	Bytes int64 `json:"bytes,omitempty"`
}

// tracer records spans in memory; they are written out once at the end.
//
// Attribution relies on the workloads' shape: each phase has exactly one
// client, so at most one request is in flight. Store reads made while a
// query is in flight belong to that query (its parallel workers included);
// store operations made while the drain runs belong to the drain; all
// others are background work (flushes and compactions).
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	phase string
	req   int            // remote.request span of the request in flight
	query int            // core query span in flight
	drain int            // core.Flush span in flight
	aggs  map[string]int // per-request aggregated core spans by name
	busy  map[int]int64  // summed call time of the aggregated spans
	seen  map[uint64]bool
	// slowRead maps each slow-tier range a query read to its length: the
	// level-2 bytes the read window touches, to compare with the cache.
	slowRead map[string]int64
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		req:   -1, query: -1, drain: -1,
		aggs: map[string]int{},
		busy: map[int]int64{},
		seen: map[uint64]bool{},

		slowRead: map[string]int64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) setPhase(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

func (t *tracer) openLocked(name string, parent int, class string) int {
	id := len(t.spans)
	req := id
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Class: class, Phase: t.phase, Start: t.now()})
	return id
}

// open starts a span; parent -1 makes it a root.
func (t *tracer) open(name string, parent int, class string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.openLocked(name, parent, class)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// handler wraps the server: each request gets a remote.request span,
// child of the client span named in the request header.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		t.mu.Lock()
		if parent >= len(t.spans) {
			parent = -1
		}
		id := t.openLocked("remote.request", parent, "")
		t.req = id
		t.mu.Unlock()
		next.ServeHTTP(w, r)
		end := t.now()
		t.mu.Lock()
		for _, a := range t.aggs {
			t.spans[a].End = t.spans[a].Start + t.busy[a]
		}
		clear(t.aggs)
		t.spans[id].End = end
		t.req = -1
		t.mu.Unlock()
	})
}

// call times one core call of the request in flight, folding it into
// the request's aggregated span of that name.
func (t *tracer) call(name string, n int64, fn func() uint64) {
	start := t.now()
	id := fn()
	d := t.now() - start
	t.mu.Lock()
	if name == "core.Append" && !t.seen[id] {
		t.seen[id] = true
		name = "core.Append.birth"
	}
	a, ok := t.aggs[name]
	if !ok {
		a = t.openLocked(name, t.req, "")
		t.spans[a].Start = start
		t.aggs[name] = a
	}
	t.busy[a] += d
	t.spans[a].N += n
	t.mu.Unlock()
}

// storeOp records one store operation of the given tier.
func (t *tracer) storeOp(tier, op, key string, off int64, start int64, bytes int) {
	end := t.now()
	t.mu.Lock()
	parent := -1
	read := op == "get" || op == "getrange"
	switch {
	case read && t.query >= 0:
		parent = t.query
		if tier == "slow" {
			t.slowRead[key+"@"+strconv.FormatInt(off, 10)] = int64(bytes)
		}
	case t.drain >= 0:
		parent = t.drain
	}
	id := t.openLocked("cloud."+tier+"."+op, parent, "")
	if parent < 0 {
		t.spans[id].Req = -1
	}
	t.spans[id].Start, t.spans[id].End = start, end
	t.spans[id].N, t.spans[id].Bytes = 1, int64(bytes)
	t.mu.Unlock()
}

// drainStart/drainEnd bracket db.Flush as a root span.
func (t *tracer) drainStart() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.drain = t.openLocked("core.Flush", -1, "drain")
	t.mu.Unlock()
}

func (t *tracer) drainEnd() {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[t.drain].End = end
	t.drain = -1
	t.mu.Unlock()
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] = s.End - s.Start - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// tracedBackend times every core call the server makes. It implements
// the same optional interfaces as remote.TimeUnionBackend, so the server
// takes the same code paths as in an untraced run.
type tracedBackend struct {
	inner *remote.TimeUnionBackend
	t     *tracer
}

var (
	_ remote.ContextBackend   = (*tracedBackend)(nil)
	_ remote.StreamingBackend = (*tracedBackend)(nil)
)

func (b *tracedBackend) Append(ls labels.Labels, t int64, v float64) (id uint64, err error) {
	b.t.call("core.Append", 1, func() uint64 { id, err = b.inner.Append(ls, t, v); return id })
	return id, err
}

func (b *tracedBackend) AppendFast(id uint64, t int64, v float64) (err error) {
	b.t.call("core.AppendFast", 1, func() uint64 { err = b.inner.AppendFast(id, t, v); return 0 })
	return err
}

func (b *tracedBackend) AppendGroup(g labels.Labels, u []labels.Labels, t int64, vals []float64) (gid uint64, slots []int, err error) {
	b.t.call("core.AppendGroup", int64(len(vals)), func() uint64 { gid, slots, err = b.inner.AppendGroup(g, u, t, vals); return 0 })
	return gid, slots, err
}

func (b *tracedBackend) AppendGroupFast(gid uint64, slots []int, t int64, vals []float64) (err error) {
	b.t.call("core.AppendGroupFast", int64(len(vals)), func() uint64 { err = b.inner.AppendGroupFast(gid, slots, t, vals); return 0 })
	return err
}

func (b *tracedBackend) Query(mint, maxt int64, ms ...*labels.Matcher) ([]remote.QuerySeries, error) {
	return b.QueryContext(context.Background(), mint, maxt, ms...)
}

func (b *tracedBackend) QueryContext(ctx context.Context, mint, maxt int64, ms ...*labels.Matcher) ([]remote.QuerySeries, error) {
	t := b.t
	t.mu.Lock()
	id := t.openLocked("core.Query", t.req, "")
	t.query = id
	t.mu.Unlock()
	tr := obs.NewTrace("perfbench")
	res, err := b.inner.QueryContext(obs.ContextWithTrace(ctx, tr), mint, maxt, ms...)
	end := t.now()
	stages := map[string]stageAgg{}
	for _, st := range tr.Stages() {
		stages[st.Name] = stageAgg{Count: st.Count, NS: int64(st.Total), Bytes: st.Bytes}
	}
	samples := 0
	for _, s := range res {
		samples += len(s.Samples)
	}
	t.mu.Lock()
	s := &t.spans[id]
	s.End, s.Stages, s.Series, s.Samples = end, stages, len(res), samples
	t.query = -1
	t.mu.Unlock()
	return res, err
}

// QueryStream times only the cursor's creation; the series decode lazily
// as the server writes them. No workload uses the streaming endpoint.
func (b *tracedBackend) QueryStream(ctx context.Context, mint, maxt int64, ms ...*labels.Matcher) (remote.SeriesCursor, error) {
	t := b.t
	t.mu.Lock()
	id := t.openLocked("core.QueryStream", t.req, "")
	t.mu.Unlock()
	cur, err := b.inner.QueryStream(ctx, mint, maxt, ms...)
	t.close(id)
	return cur, err
}

// tracedStore times a tier's operations with their payload bytes.
type tracedStore struct {
	cloud.Store
	tier string
	t    *tracer
}

func (s *tracedStore) Put(key string, data []byte) error {
	start := s.t.now()
	err := s.Store.Put(key, data)
	s.t.storeOp(s.tier, "put", key, 0, start, len(data))
	return err
}

func (s *tracedStore) Get(key string) ([]byte, error) {
	start := s.t.now()
	d, err := s.Store.Get(key)
	s.t.storeOp(s.tier, "get", key, 0, start, len(d))
	return d, err
}

func (s *tracedStore) GetRange(key string, off, length int64) ([]byte, error) {
	start := s.t.now()
	d, err := s.Store.GetRange(key, off, length)
	s.t.storeOp(s.tier, "getrange", key, off, start, len(d))
	return d, err
}

func (s *tracedStore) Delete(key string) error {
	start := s.t.now()
	err := s.Store.Delete(key)
	s.t.storeOp(s.tier, "delete", key, 0, start, 0)
	return err
}

func (s *tracedStore) List(prefix string) ([]string, error) {
	start := s.t.now()
	keys, err := s.Store.List(prefix)
	s.t.storeOp(s.tier, "list", prefix, 0, start, 0)
	return keys, err
}

// Instrument forwards the engine's latency histograms to the base store.
func (s *tracedStore) Instrument(read, write *obs.Histogram) {
	cloud.InstrumentStore(s.Store, read, write)
}
