package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"timeunion/internal/obs"
	"timeunion/internal/tsbs"
)

// ledger derives the per-layer metrics of a traced repetition from its
// spans, the engine's counters and journal, and the process counters, and
// prints each layer's self time and the per-class breakdown.
func (b *bench) ledger() map[string]float64 {
	t := b.tr
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	st := b.st.db.Stats()
	wp, rp, mp := b.phases["write"], b.phases["read"], b.phases[b.main]

	per := func(v float64, n int64) float64 {
		if n <= 0 {
			return 0
		}
		return v / float64(n)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	const mb = 1 << 20

	// Sums over the spans of the timed phases.
	var (
		clientSelf, remoteSelf, coreSelf int64
		requests                         int64
		appendNS, appendN                int64
		birthNS, birthN                  int64
		drainNS                          int64
		bgNS                             int64
		queryNS                          []int64
		patternNS                        = map[string][]int64{}
		series, samples                  int64
		stage                            = map[string]int64{}
		readNS                           = map[string]int64{}
	)
	timed := func(s *span) bool { return s.Phase == "write" || s.Phase == "read" }
	for i := range spans {
		s := &spans[i]
		d := s.End - s.Start
		switch {
		case s.Name == "client.request" && timed(s):
			clientSelf += self[i]
			requests++
		case s.Name == "remote.request" && timed(s):
			remoteSelf += self[i]
		case s.Name == "core.Append.birth":
			birthNS += d
			birthN += s.N
		case s.Name == "core.Flush" && s.Phase == "write":
			drainNS += d
		case strings.HasPrefix(s.Name, "cloud.") && s.Req < 0 && s.Phase == "write":
			bgNS += d
		}
		if strings.HasPrefix(s.Name, "core.") && s.Name != "core.Flush" && s.Parent >= 0 && timed(s) {
			coreSelf += self[i]
		}
		if (s.Name == "core.AppendFast" || s.Name == "core.AppendGroupFast") && s.Phase == "write" {
			appendNS += d
			appendN += s.N
		}
		if s.Name == "core.Query" && s.Phase == "read" {
			queryNS = append(queryNS, d)
			if s.Req >= 0 {
				c := spans[s.Req].Class
				patternNS[c] = append(patternNS[c], d)
			}
			series += int64(s.Series)
			samples += int64(s.Samples)
			for name, a := range s.Stages {
				stage[name] += a.NS
			}
		}
		if strings.HasPrefix(s.Name, "cloud.") && s.Phase == "read" && s.Parent >= 0 && spans[s.Parent].Name == "core.Query" {
			readNS[strings.Split(s.Name, ".")[1]] += d
		}
	}
	sort.Slice(queryNS, func(i, j int) bool { return queryNS[i] < queryNS[j] })
	qp := func(q float64) float64 {
		if len(queryNS) == 0 {
			return 0
		}
		return us(queryNS[rank(len(queryNS), q)])
	}

	L := map[string]float64{
		"client.self_us_per_req":   per(us(clientSelf), requests),
		"remote.self_us_per_req":   per(us(remoteSelf), requests),
		"remote.conns_opened":      float64(b.st.conns.Load()),
		"core.self_us_per_req":     per(us(coreSelf), requests),
		"core.birth_us_per_series": per(us(birthNS), birthN),
		"core.query_us_p50":        qp(0.50),
		"core.query_us_p99":        qp(0.99),
		"core.flush_s":             float64(drainNS) / 1e9,
		"index.memory_mb":          float64(st.Memory.IndexBytes) / mb,
		"head.memory_mb":           float64(st.Memory.Total()) / mb,
		"head.series":              float64(st.NumSeries),
		"cloud.bg_busy_s":          float64(bgNS) / 1e9,
	}
	// The backend span's p50 per TSBS pattern; 0 on workloads that do
	// not send that pattern.
	for _, p := range tsbs.Patterns {
		L["core.query_us."+p.Name] = nsPct(patternNS[p.Name], 0.5)
	}
	if wp != nil {
		d0, d1 := wp.s0, wp.s1
		reg := func(name string) float64 { return d1.reg[name] - d0.reg[name] }
		walBytes := reg("timeunion_wal_size_bytes")
		written := float64(d1.fast.BytesWritten - d0.fast.BytesWritten + d1.slow.BytesWritten - d0.slow.BytesWritten)
		L["remote.req_bytes_per_sample"] = per(float64(wp.reqBytes), wp.samples)
		L["core.append_us_per_sample"] = per(us(appendNS), appendN)
		L["head.chunks_flushed"] = reg(`timeunion_head_chunks_flushed_total{kind="series"}`) + reg(`timeunion_head_chunks_flushed_total{kind="group"}`)
		L["wal.records_per_sample"] = per(reg("timeunion_wal_records_total"), wp.samples)
		L["wal.bytes_per_sample"] = per(walBytes, wp.samples)
		L["wal.write_syscalls_per_sample"] = per(float64(d1.syscw-d0.syscw), wp.samples)
		L["wal.fsyncs"] = reg("timeunion_wal_fsync_seconds_count")
		L["lsm.flushes"] = float64(d1.lsm.Flushes - d0.lsm.Flushes)
		L["lsm.compactions_l0l1"] = float64(d1.lsm.CompactionsL0L1 - d0.lsm.CompactionsL0L1)
		L["lsm.compactions_l1l2"] = float64(d1.lsm.CompactionsL1L2 - d0.lsm.CompactionsL1L2)
		L["lsm.write_amp"] = per(written, int64(walBytes))
		flushUS, compUS, queue := b.journalBusy(d0.jseq, d1.jseq)
		L["lsm.flush_busy_s"] = float64(flushUS) / 1e6
		L["lsm.compaction_busy_s"] = float64(compUS) / 1e6
		L["lsm.compaction_queue_ms_p99"] = queue
		L["cloud.fast.puts"] = float64(d1.fast.Puts - d0.fast.Puts)
		L["cloud.slow.puts"] = float64(d1.slow.Puts - d0.slow.Puts)
		L["cloud.fast.written_mb"] = float64(d1.fast.BytesWritten-d0.fast.BytesWritten) / mb
		L["cloud.slow.written_mb"] = float64(d1.slow.BytesWritten-d0.slow.BytesWritten) / mb
		simW := d1.fast.SimWriteTime - d0.fast.SimWriteTime + d1.slow.SimWriteTime - d0.slow.SimWriteTime
		L["cloud.modelled_write_s"] = float64(simW) / 1e9
		L["runtime.alloc_bytes_per_sample"] = per(rtDelta(d0, d1, "/gc/heap/allocs:bytes"), wp.samples)
	}
	if rp != nil {
		d0, d1 := rp.s0, rp.s1
		n := rp.queries
		reg := func(name string) float64 { return d1.reg[name] - d0.reg[name] }
		L["remote.resp_bytes_per_query"] = per(float64(rp.respBytes), n)
		L["core.series_per_query"] = per(float64(series), n)
		L["core.samples_per_query"] = per(float64(samples), n)
		L["index.select_us_per_query"] = per(us(stage["index_select"]), n)
		L["head.scan_us_per_query"] = per(us(stage["head_scan"]), n)
		L["lsm.read_us_per_query"] = per(us(stage["lsm_read"]), n)
		L["chunkenc.decode_us_per_query"] = per(us(stage["decode"]), n)
		L["chunkenc.decoded_bytes_per_query"] = per(reg("timeunion_db_decoded_bytes_total"), n)
		L["chunkenc.chunks_decoded_per_query"] = per(reg("timeunion_db_chunks_decoded_total"), n)
		L["cloud.fast.gets_per_query"] = per(float64(d1.fast.Gets-d0.fast.Gets), n)
		L["cloud.slow.gets_per_query"] = per(float64(d1.slow.Gets-d0.slow.Gets), n)
		L["cloud.fast.busy_us_per_query"] = per(us(readNS["fast"]), n)
		L["cloud.slow.busy_us_per_query"] = per(us(readNS["slow"]), n)
		sim := d1.fast.SimReadTime - d0.fast.SimReadTime + d1.slow.SimReadTime - d0.slow.SimReadTime
		L["cloud.modelled_read_ms_per_query"] = per(float64(sim)/1e6, n)
		hits, misses := d1.hits-d0.hits, d1.misses-d0.misses
		L["cloud.cache_hit_ratio"] = per(float64(hits), int64(hits+misses)) // 0 when the cache was not used
		L["cloud.cache_evictions"] = float64(d1.evicts - d0.evicts)
		L["cloud.cache_shared_fetches"] = float64(d1.shared - d0.shared)
		L["runtime.alloc_bytes_per_query"] = per(rtDelta(d0, d1, "/gc/heap/allocs:bytes"), n)
	}
	if mp != nil {
		d0, d1 := mp.s0, mp.s1
		L["runtime.gc_cycles"] = rtDelta(d0, d1, "/gc/cycles/total:gc-cycles")
		// The runtime updates its CPU classes at each GC; with no GC in
		// the window the share is 0.
		L["runtime.gc_cpu_share"] = 0
		if total := rtDelta(d0, d1, "/cpu/classes/total:cpu-seconds"); total > 0 {
			L["runtime.gc_cpu_share"] = rtDelta(d0, d1, "/cpu/classes/gc/total:cpu-seconds") / total
		}
		L["runtime.sched_latency_p99_us"] = schedP99(d0, d1) * 1e6
		L["runtime.heap_live_mb"] = rtValue(d1, "/gc/heap/live:bytes") / mb
	}
	var touched int64
	t.mu.Lock()
	for _, n := range t.slowRead {
		touched += n
	}
	t.mu.Unlock()
	b.info["l2_bytes_touched"] = float64(touched)
	b.printLedger(spans, self)
	return L
}

// journalBusy sums the durations of the flush and compaction events with
// sequence numbers in (from, to] and returns the p99 compaction queue wait
// in milliseconds.
func (b *bench) journalBusy(from, to uint64) (flushUS, compUS int64, queueP99 float64) {
	var queue []int64
	for _, e := range b.st.db.Journal().Events(from, nil) {
		if e.Seq > to {
			break
		}
		switch e.Kind {
		case "lsm.flush":
			flushUS += e.DurationUs
		case "lsm.compact.l0l1", "lsm.compact.l1l2":
			compUS += e.DurationUs
			queue = append(queue, fieldInt(e, "queue_us"))
		}
	}
	if len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
		queueP99 = float64(queue[rank(len(queue), 0.99)]) / 1e3
	}
	return flushUS, compUS, queueP99
}

func fieldInt(e obs.Event, name string) int64 {
	switch v := e.Fields[name].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	}
	return 0
}

// layerOf names the ledger layer a span's self time belongs to.
func layerOf(s *span) string {
	switch {
	case strings.HasPrefix(s.Name, "cloud.") && s.Req < 0:
		return "background"
	case strings.HasPrefix(s.Name, "cloud.fast."):
		return "cloud.fast"
	case strings.HasPrefix(s.Name, "cloud.slow."):
		return "cloud.slow"
	case s.Name == "core.Flush":
		return "drain"
	}
	return s.Name[:strings.IndexByte(s.Name, '.')]
}

// printLedger prints, per phase, each layer's self time, and per request
// class the client latency next to the core time of the same requests.
func (b *bench) printLedger(spans []span, self []int64) {
	w := b.log
	for _, ph := range b.order {
		p := b.phases[ph]
		reqs := int64(len(p.lats))
		tot := map[string]int64{}
		cnt := map[string]int64{}
		for i := range spans {
			if spans[i].Phase != ph {
				continue
			}
			l := layerOf(&spans[i])
			tot[l] += self[i]
			cnt[l]++
		}
		fmt.Fprintf(w, "ledger %s/%s: self time per layer over %d requests (%.3fs window)\n", b.wl, ph, reqs, p.seconds())
		for _, l := range []string{"client", "remote", "core", "cloud.fast", "cloud.slow", "drain", "background"} {
			if cnt[l] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-10s spans=%-7d self=%10.3fms  per_req=%9.2fus\n", l, cnt[l],
				float64(tot[l])/1e6, float64(tot[l])/1e3/float64(max(reqs, 1)))
		}
		// Core time per request, grouped by the client span's class.
		coreBy := map[string][]int64{}
		clientBy := map[string][]int64{}
		coreOf := map[int]int64{}
		for i := range spans {
			s := &spans[i]
			if s.Phase != ph || s.Req < 0 {
				continue
			}
			if s.Name == "client.request" {
				clientBy[s.Class] = append(clientBy[s.Class], s.End-s.Start)
			} else if strings.HasPrefix(s.Name, "core.") && s.Name != "core.Flush" {
				coreOf[s.Req] += s.End - s.Start
			}
		}
		for req, ns := range coreOf {
			c := spans[req].Class
			coreBy[c] = append(coreBy[c], ns)
		}
		classes := make([]string, 0, len(clientBy))
		for c := range clientBy {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Fprintf(w, "  class %-10s n=%-6d client p50=%8.1fus p99=%8.1fus  core p50=%8.1fus p99=%8.1fus\n", c,
				len(clientBy[c]), nsPct(clientBy[c], 0.5), nsPct(clientBy[c], 0.99), nsPct(coreBy[c], 0.5), nsPct(coreBy[c], 0.99))
		}
	}
}

func nsPct(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(time.Duration(s[rank(len(s), q)])) / 1e3
}
