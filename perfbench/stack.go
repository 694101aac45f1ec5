package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/lsm"
	"timeunion/internal/remote"
)

// dbConfig is the per-workload engine geometry. Server parallelism
// (QueryConcurrency, CompactionWorkers) stays at the engine defaults.
type dbConfig struct {
	memTable   int64
	l0Len      int64
	l2Len      int64
	cacheBytes int64
}

// stack is the server under test: the engine, its two in-memory tiers
// (latency modelled as counts only, TimeScale 0) and the HTTP server.
type stack struct {
	fast, slow cloud.Store
	db         *core.DB
	srv        *httptest.Server
	conns      atomic.Int64 // connections the server accepted
}

func openStack(dir string, cfg dbConfig, tr *tracer) (*stack, error) {
	s := &stack{
		fast: cloud.NewMemStore(cloud.TierBlock, cloud.EBSModel(0)),
		slow: cloud.NewMemStore(cloud.TierObject, cloud.S3Model(0)),
	}
	if tr != nil {
		s.fast = &tracedStore{Store: s.fast, tier: "fast", t: tr}
		s.slow = &tracedStore{Store: s.slow, tier: "slow", t: tr}
	}
	db, err := core.Open(core.Options{
		Dir:               dir,
		Fast:              s.fast,
		Slow:              s.slow,
		CacheBytes:        cfg.cacheBytes,
		ChunkSamples:      32,
		SlotsPerRegion:    2048,
		SlotSize:          512,
		MemTableSize:      cfg.memTable,
		L0PartitionLength: cfg.l0Len,
		L2PartitionLength: cfg.l2Len,
		BlockSize:         4096,
		// Large enough that no flush or compaction event of one
		// repetition is overwritten before the ledger reads it.
		JournalCapacity: 1 << 16,
	})
	if err != nil {
		return nil, err
	}
	s.db = db
	var backend remote.Backend = &remote.TimeUnionBackend{DB: db}
	if tr != nil {
		backend = &tracedBackend{inner: &remote.TimeUnionBackend{DB: db}, t: tr}
	}
	var h http.Handler = remote.NewOpsHandler(remote.NewServer(backend), remote.OpsConfig{
		Metrics: db.Metrics(),
		Journal: db.Journal(),
		Tree:    db.TreeSnapshot,
	})
	if tr != nil {
		h = tr.handler(h)
	}
	s.srv = httptest.NewUnstartedServer(h)
	s.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}
	s.srv.Start()
	return s, nil
}

func (s *stack) close() error {
	s.srv.Close()
	return s.db.Close()
}

// spanHeader carries the client span id to the server in traced runs.
const spanHeader = "X-Perfbench-Span"

// client is one closed-loop load generator role. It holds exactly one
// keep-alive connection and reads every response body to EOF, so the
// connection is always reusable (remote.Client does not drain write
// responses, which forces a new connection per request).
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	buf  bytes.Buffer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		tr:   tr,
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

// do posts body and returns the response body read to EOF and the latency
// from send until EOF. The returned slice is valid until the next call.
func (c *client) do(path string, body []byte, class string) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := -1
	if c.tr != nil {
		sp = c.tr.open("client.request", -1, class)
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.close(sp)
		return nil, 0, err
	}
	c.buf.Reset()
	_, rerr := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	c.tr.close(sp)
	if rerr != nil {
		return nil, d, rerr
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), d, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// snap is a point-in-time reading of every counter a phase is judged by:
// process resources, Go runtime metrics and the engine's own counters.
type snap struct {
	at     time.Time
	cpu    time.Duration // process user + system CPU
	syscw  int64         // write-family syscalls (/proc/self/io)
	rt     []metrics.Sample
	reg    map[string]float64
	fast   cloud.Stats
	slow   cloud.Stats
	lsm    lsm.Stats
	hits   uint64
	misses uint64
	evicts uint64
	shared uint64
	jseq   uint64 // last journal sequence number
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

// snapshot reads the engine counters and the process counters. At the
// start of a phase the clock is read last, at the end first, so the
// engine-side reads stay outside the timed interval.
func (s *stack) snapshot(end bool) snap {
	var sn snap
	if end {
		sn.at = time.Now()
		sn.cpu, sn.syscw = processCounters()
	}
	sn.rt = make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		sn.rt[i].Name = n
	}
	metrics.Read(sn.rt)
	sn.reg = s.db.Metrics().Snapshot()
	sn.fast, sn.slow = s.fast.Stats(), s.slow.Stats()
	sn.lsm = s.db.Stats().LSM
	c := s.db.Cache()
	sn.hits, sn.misses = c.HitRate()
	sn.evicts, sn.shared = c.Evictions(), c.SharedFetches()
	sn.jseq = s.db.Journal().LastSeq()
	if !end {
		sn.cpu, sn.syscw = processCounters()
		sn.at = time.Now()
	}
	return sn
}

func processCounters() (time.Duration, int64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, procIOField("syscw")
}

// procIOField reads one counter of /proc/self/io (0 when unavailable).
func procIOField(name string) int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+":"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak resident set size (VmHWM) from
// the current RSS, so peakRSS reports the peak of one window. The load
// generator shares the process, so this is the server's footprint plus
// the generator's small state. Without clear_refs support the peak covers
// the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSS returns VmHWM in bytes (0 when unavailable).
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}
