package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"timeunion/internal/cloud"
)

// workload drives one repetition: setup, then its phases.
type workload struct {
	db  dbConfig
	run func(b *bench) error
	// main is the phase whose window cpu_s and memory_mb cover.
	main string
}

var workloads = map[string]workload{
	"ingest": {db: ingestDB, run: runIngest, main: "write"},
	"query":  {db: queryDB, run: runQuery, main: "read"},
	"churn":  {db: churnDB, run: runChurn, main: "write"},
}

// latency is one completed request of a phase.
type latency struct {
	d     time.Duration
	class string
}

// phase is one timed window: the write window (ending in the drain) or
// the read window.
type phase struct {
	name      string
	s0, s1    snap
	lats      []latency
	samples   int64
	queries   int64
	reqBytes  int64
	respBytes int64
	peakRSS   int64
}

func (p *phase) seconds() float64 { return p.s1.at.Sub(p.s0.at).Seconds() }

// bench is the state of one repetition.
type bench struct {
	wl         string
	main       string // the phase cpu_s and memory_mb cover
	cacheBytes int64
	seed       int64
	scale      float64
	log        io.Writer
	st         *stack
	tr         *tracer
	start      time.Time
	setupS     float64
	phases     map[string]*phase
	order      []string
	cur        *phase
	clients    int
	samples    int64 // every acknowledged sample, setup included
	attempts   int
	failed     int
	problems   []string
	info       map[string]float64
}

// scaled returns n scaled by the run's size multiplier, at least lo.
func (b *bench) scaled(n, lo int) int {
	v := int(math.Round(float64(n) * b.scale))
	if v < lo {
		return lo
	}
	return v
}

func (b *bench) newClient() *client {
	b.clients++
	return newClient(b.st.srv.URL, b.tr)
}

func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// send issues one request and accounts it to the current phase. It
// returns the response body, or nil when the request failed.
func (b *bench) send(c *client, path string, body []byte, class string, samples int64) []byte {
	b.attempts++
	resp, d, err := c.do(path, body, class)
	if err != nil {
		b.failed++
		b.problem("%s (%s): %v", path, class, err)
		return nil
	}
	query := strings.HasPrefix(path, "/api/v1/query")
	if !query {
		b.samples += samples
	}
	if p := b.cur; p != nil {
		p.lats = append(p.lats, latency{d, class})
		p.reqBytes += int64(len(body))
		p.respBytes += int64(len(resp))
		if query {
			p.queries++
		} else {
			p.samples += samples
		}
	}
	return resp
}

// setupDone ends set-up: everything before the first timed request.
func (b *bench) setupDone() { b.setupS = time.Since(b.start).Seconds() }

func (b *bench) begin(name string) {
	p := &phase{name: name}
	// Collect the previous phase's garbage outside the window, so a
	// window's GC work depends on its own allocations only.
	runtime.GC()
	b.tr.setPhase(name)
	if name == b.main {
		resetPeakRSS()
	}
	p.s0 = b.st.snapshot(false)
	b.cur = p
	b.phases[name] = p
	b.order = append(b.order, name)
}

func (b *bench) end() {
	p := b.cur
	p.s1 = b.st.snapshot(true)
	if p.name == b.main {
		p.peakRSS = peakRSS()
	}
	b.cur = nil
	b.tr.setPhase("")
}

// drain runs db.Flush inside the write window, so deferred flushes and
// compactions cannot pass for throughput.
func (b *bench) drain() {
	b.tr.drainStart()
	if err := b.st.db.Flush(); err != nil {
		b.problem("flush: %v", err)
	}
	b.tr.drainEnd()
}

func run(wl string, seed int64, scale float64, traced bool, dir string, log io.Writer) (*result, error) {
	w, ok := workloads[wl]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, query or churn)", wl)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{wl: wl, main: w.main, cacheBytes: w.db.cacheBytes, seed: seed, scale: scale, log: log, phases: map[string]*phase{}, info: map[string]float64{}, start: time.Now()}
	if traced {
		b.tr = newTracer()
	}
	st, err := openStack(filepath.Join(dir, "db"), w.db, b.tr)
	if err != nil {
		return nil, err
	}
	b.st = st
	runErr := w.run(b)
	res := b.finish(traced)
	if err := st.close(); err != nil {
		b.problem("close: %v", err)
	}
	if runErr != nil {
		b.problem("%v", runErr)
	}
	if traced {
		if err := b.tr.writeSpans(filepath.Join(dir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	res.Problems = b.problems
	res.Correct = len(b.problems) == 0 && b.failed == 0
	for _, p := range b.problems {
		fmt.Fprintln(log, "FAIL:", p)
	}
	return res, nil
}

// finish computes the repetition's metrics and prints its report.
func (b *bench) finish(traced bool) *result {
	st := b.st.db.Stats()
	fastB, slowB := b.st.fast.TotalBytes(), b.st.slow.TotalBytes()
	headMem := st.Memory.Total()
	conns := b.st.conns.Load()
	if conns > int64(b.clients) {
		b.problem("server accepted %d connections for %d clients: a response was not drained or a connection was dropped", conns, b.clients)
	}
	wp, rp := b.phases["write"], b.phases["read"]
	mp := b.phases[b.main]
	m := map[string]float64{
		"setup_s":           b.setupS,
		"bytes_per_sample":  float64(fastB+slowB) / float64(max(b.samples, 1)),
		"storage_usd_month": cloud.MonthlyCostUSD(fastB, slowB, headMem),
	}
	if wp != nil {
		m["write_samples_per_s"] = float64(wp.samples) / wp.seconds()
		m["write_p50_ms"] = pctMs(wp.lats, 0.50)
		m["write_p99_ms"] = pctMs(wp.lats, 0.99)
	}
	if rp != nil {
		m["queries_per_s"] = float64(rp.queries) / rp.seconds()
		m["query_p50_ms"] = pctMs(rp.lats, 0.50)
		m["query_p99_ms"] = pctMs(rp.lats, 0.99)
	}
	if mp != nil {
		m["memory_mb"] = float64(mp.peakRSS) / (1 << 20)
		m["cpu_s"] = (mp.s1.cpu - mp.s0.cpu).Seconds()
	}
	b.info["series"] = float64(st.NumSeries)
	b.info["groups"] = float64(st.NumGroups)
	b.info["samples"] = float64(b.samples)
	b.info["flushes"] = float64(st.LSM.Flushes)
	b.info["compactions_l0l1"] = float64(st.LSM.CompactionsL0L1)
	b.info["compactions_l1l2"] = float64(st.LSM.CompactionsL1L2)
	b.info["fast_bytes"] = float64(fastB)
	b.info["slow_bytes"] = float64(slowB)
	b.info["cache_bytes"] = float64(b.cacheBytes)
	b.info["conns_opened"] = float64(conns)
	b.info["clients"] = float64(b.clients)
	b.info["query_concurrency"] = float64(runtime.GOMAXPROCS(0))
	b.info["compaction_workers"] = 2 // the lsm default, left unset
	for _, name := range b.order {
		p := b.phases[name]
		b.info[name+"_requests"] = float64(len(p.lats))
		if name == "write" {
			b.info["write_samples"] = float64(p.samples)
		} else {
			b.info["read_queries"] = float64(p.queries)
		}
	}

	fmt.Fprintf(b.log, "== %s seed=%d traced=%v: %d requests (%d failed), %d clients, %d connections\n",
		b.wl, b.seed, traced, b.attempts, b.failed, b.clients, conns)
	fmt.Fprintf(b.log, "reached: series=%d groups=%d samples=%d flushes=%d l0l1=%d l1l2=%d fast=%dB slow=%dB cache=%dB\n",
		st.NumSeries, st.NumGroups, b.samples, st.LSM.Flushes, st.LSM.CompactionsL0L1, st.LSM.CompactionsL1L2,
		fastB, slowB, b.cacheBytes)
	fmt.Fprintf(b.log, "failed_ratio=%g (%d of %d requests)\n", float64(b.failed)/float64(max(b.attempts, 1)), b.failed, b.attempts)
	for _, name := range b.order {
		printClasses(b.log, b.phases[name])
	}
	res := &result{Workload: b.wl, Traced: traced, Attempted: b.attempts, Failed: b.failed, Metrics: m, Info: b.info}
	if traced {
		res.Layers = b.ledger()
	}
	return res
}

func sortedLats(lats []latency) []latency {
	s := append([]latency(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i].d < s[j].d })
	return s
}

// rank is the nearest-rank index of quantile q in n sorted values.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func pctMs(lats []latency, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := sortedLats(lats)
	return float64(s[rank(len(s), q)].d) / 1e6
}

// printClasses prints the phase's latency per request class and, for p50
// and p99, the class mix of the requests ranked within one percent of it:
// a percentile whose neighbourhood mixes classes sits on a class boundary.
func printClasses(w io.Writer, p *phase) {
	if len(p.lats) == 0 {
		return
	}
	s := sortedLats(p.lats)
	byClass := map[string][]latency{}
	var classes []string
	for _, l := range p.lats {
		if _, ok := byClass[l.class]; !ok {
			classes = append(classes, l.class)
		}
		byClass[l.class] = append(byClass[l.class], l)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "phase %s: %d requests in %.3fs\n", p.name, len(p.lats), p.seconds())
	for _, c := range classes {
		ls := byClass[c]
		fmt.Fprintf(w, "  class %-10s n=%-6d share=%5.1f%% p50=%.3fms p99=%.3fms\n", c, len(ls),
			100*float64(len(ls))/float64(len(s)), pctMs(ls, 0.5), pctMs(ls, 0.99))
	}
	for _, q := range []float64{0.50, 0.99} {
		i := rank(len(s), q)
		lo, hi := rank(len(s), q-0.01), rank(len(s), q+0.01)
		mix := map[string]int{}
		for _, l := range s[lo : hi+1] {
			mix[l.class]++
		}
		var parts []string
		for _, c := range classes {
			if mix[c] > 0 {
				parts = append(parts, fmt.Sprintf("%s %d%%", c, 100*mix[c]/(hi-lo+1)))
			}
		}
		fmt.Fprintf(w, "  p%02.0f=%.3fms falls in %s; ranks p%02.0f±1: %s\n", q*100, float64(s[i].d)/1e6, s[i].class, q*100, strings.Join(parts, ", "))
	}
}

// rtDelta returns the change of runtime metric name between two snapshots.
func rtDelta(a, b snap, name string) float64 {
	for i := range a.rt {
		if a.rt[i].Name != name {
			continue
		}
		switch a.rt[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(b.rt[i].Value.Uint64()) - float64(a.rt[i].Value.Uint64())
		case metrics.KindFloat64:
			return b.rt[i].Value.Float64() - a.rt[i].Value.Float64()
		}
	}
	return 0
}

func rtValue(s snap, name string) float64 {
	for i := range s.rt {
		if s.rt[i].Name == name && s.rt[i].Value.Kind() == metrics.KindUint64 {
			return float64(s.rt[i].Value.Uint64())
		}
	}
	return 0
}

// schedP99 is the p99 scheduling latency between two snapshots, from the
// runtime's cumulative histogram (upper bucket bound, in seconds).
func schedP99(a, b snap) float64 {
	var ha, hb *metrics.Float64Histogram
	for i := range a.rt {
		if a.rt[i].Name == "/sched/latencies:seconds" {
			ha, hb = a.rt[i].Value.Float64Histogram(), b.rt[i].Value.Float64Histogram()
		}
	}
	if ha == nil {
		return 0
	}
	var total uint64
	d := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		d[i] = hb.Counts[i] - ha.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= want {
			ub := hb.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = hb.Buckets[i]
			}
			return ub
		}
	}
	return 0
}
