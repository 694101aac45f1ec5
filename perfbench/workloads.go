package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"timeunion/internal/labels"
	"timeunion/internal/remote"
	"timeunion/internal/tsbs"
)

// Sample interval of every workload: 10 s of sample time, as in TSBS.
const interval = 10_000

// ingest: steady TSBS DevOps ingest over the individual-series fast path.
// Set-up registers every series; the timed window has no series births
// and no reads. The memtable is small, so the window runs dozens of
// flushes and several compactions at both levels. A read window
// afterwards reads every series back, one query each, and checks every
// sample.
var ingestDB = dbConfig{memTable: 64 << 10, l0Len: 30 * interval, l2Len: 120 * interval, cacheBytes: 256 << 10}

func runIngest(b *bench) error {
	hosts := tsbs.Hosts(10, b.seed)
	rounds := b.scaled(320, 8)
	gen := tsbs.NewGenerator(hosts, 0, interval, b.seed+1)
	w := b.newClient()
	defer w.close()

	t, vals := gen.Round()
	ids := make([][]uint64, len(hosts))
	for h := range hosts {
		var err error
		if ids[h], err = b.registerHost(w, hosts[h], t, vals[h]); err != nil {
			return err
		}
	}
	b.setupDone()

	b.begin("write")
	var buf []byte
	for r := 1; r <= rounds; r++ {
		t, vals := gen.Round()
		for h := range hosts {
			buf = appendFastWrite(buf[:0], ids[h], t, vals[h])
			b.send(w, "/api/v1/write_fast", buf, "append", int64(len(ids[h])))
		}
	}
	b.drain()
	b.end()

	// The expected values come from a second generator with the same
	// seed, built after the write window: the load generator holds no
	// sample state while the window's memory is measured.
	want := replayRounds(hosts, rounds+1, b.seed+1)
	rd := b.newClient()
	defer rd.close()
	b.begin("read")
	order := rand.New(rand.NewSource(b.seed + 2)).Perm(len(hosts) * tsbs.SeriesPerHost)
	for _, k := range order {
		h, si := k/tsbs.SeriesPerHost, k%tsbs.SeriesPerHost
		ls := hosts[h].SeriesLabels(si)
		req := remote.QueryRequest{MinT: 0, MaxT: int64(rounds) * interval}
		for _, name := range []string{"hostname", "measurement", "field"} {
			req.Matchers = append(req.Matchers, remote.MatcherSpec{Type: "=", Name: name, Value: ls.Get(name)})
		}
		body, _ := json.Marshal(req)
		if resp := b.send(rd, "/api/v1/query", body, "series", 0); resp != nil {
			b.checkSeries(resp, ls, want[h][si])
		}
	}
	b.end()
	return nil
}

// replayRounds regenerates n rounds of the TSBS generator: values per
// host, series and round.
func replayRounds(hosts []tsbs.Host, n int, seed int64) [][][]float64 {
	gen := tsbs.NewGenerator(hosts, 0, interval, seed)
	out := make([][][]float64, len(hosts))
	for h := range out {
		out[h] = make([][]float64, tsbs.SeriesPerHost)
		for si := range out[h] {
			out[h][si] = make([]float64, 0, n)
		}
	}
	for r := 0; r < n; r++ {
		_, vals := gen.Round()
		for h := range hosts {
			for si, v := range vals[h] {
				out[h][si] = append(out[h][si], v)
			}
		}
	}
	return out
}

// checkSeries compares a one-series read-back with every value sent:
// round r has timestamp r*interval and value want[r].
func (b *bench) checkSeries(resp []byte, ls labels.Labels, want []float64) {
	var qr remote.QueryResponse
	if err := json.Unmarshal(resp, &qr); err != nil {
		b.problem("%v: %v", ls, err)
		return
	}
	if len(qr.Series) != 1 || !labels.FromMap(qr.Series[0].Labels).Equal(ls) {
		b.problem("%v: got %d series, want exactly this one", ls, len(qr.Series))
		return
	}
	got := qr.Series[0].Samples
	if len(got) != len(want) {
		b.problem("%v: %d samples, want %d", ls, len(got), len(want))
		return
	}
	for r, p := range got {
		if p.T != int64(r)*interval || p.V != want[r] {
			b.problem("%v: sample %d is (%d, %g), want (%d, %g)", ls, r, p.T, p.V, int64(r)*interval, want[r])
			return
		}
	}
}

// query: TSBS dashboards over a preloaded history, no writes while
// timing. Half the hosts are individual series, half are groups (one per
// host), so the group read path is covered. The history load is the
// workload's write phase (inside set-up). Individual hosts send one round
// per request; groups batch ten rounds per request, so group requests are
// about 9% of the writes and slower than a plain append, which keeps
// write_p50_ms inside the append class (with one round per group request
// the two classes split the requests evenly and p50 sits between them).
// The newest rounds are written after the drain, so they stay in open
// head chunks. The slow-tier cache is smaller than the level-2 bytes the
// long-range patterns touch.
var queryDB = dbConfig{memTable: 64 << 10, l0Len: queryHour / 2, l2Len: 2 * queryHour, cacheBytes: 768 << 10}

const (
	queryHour  = 30 * interval // one logical hour: 30 rounds
	queryHours = 12
	queryTail  = 20 // rounds left in open head chunks (< 32-sample chunks)
	// Queries per read window: 143 per pattern, so p99 has ten
	// queries beyond it.
	queryCount = 1001
	groupBatch = 10 // rounds per group write request
)

func runQuery(b *bench) error {
	hosts := tsbs.Hosts(8, b.seed)
	half := len(hosts) / 2
	rounds := b.scaled(queryHours*queryHour/interval, 2)
	gen := tsbs.NewGenerator(hosts, 0, interval, b.seed+1)
	d := newTSBSData(hosts, queryHour)
	w := b.newClient()
	defer w.close()

	t, vals := gen.Round()
	d.record(vals)
	ids := make([][]uint64, half)
	for h := 0; h < half; h++ {
		var err error
		if ids[h], err = b.registerHost(w, hosts[h], t, vals[h]); err != nil {
			return err
		}
	}
	gids := make([]remote.GroupWriteResponse, len(hosts)-half)
	for g := range gids {
		var err error
		if gids[g], err = b.registerGroup(w, hosts[half+g], t, vals[half+g]); err != nil {
			return err
		}
	}

	var buf []byte
	var times []int64
	pending := make([][][]float64, len(gids)) // per group: rounds × members
	sendGroups := func() {
		if len(times) == 0 {
			return
		}
		for g, gr := range gids {
			body, _ := json.Marshal(remote.GroupWriteRequest{GID: gr.GID, Slots: gr.Slots, Times: times, Values: pending[g]})
			b.send(w, "/api/v1/write_group", body, "group", int64(len(times)*len(gr.Slots)))
			pending[g] = pending[g][:0]
		}
		times = times[:0]
	}
	load := func() {
		t, vals := gen.Round()
		d.record(vals)
		for h := 0; h < half; h++ {
			buf = appendFastWrite(buf[:0], ids[h], t, vals[h])
			b.send(w, "/api/v1/write_fast", buf, "append", int64(len(ids[h])))
		}
		times = append(times, t)
		for g := range gids {
			pending[g] = append(pending[g], append([]float64(nil), vals[half+g]...))
		}
		if len(times) == groupBatch {
			sendGroups()
		}
	}
	b.begin("write")
	for r := 1; r <= rounds; r++ {
		load()
	}
	sendGroups()
	b.drain()
	b.end()
	for r := 0; r < queryTail; r++ {
		load()
	}
	sendGroups()
	b.setupDone()

	rd := b.newClient()
	defer rd.close()
	b.begin("read")
	b.tsbsQueries(rd, d, b.scaled(queryCount, 14), rand.New(rand.NewSource(b.seed+2)))
	b.end()
	return nil
}

// churn: an IoT fleet whose devices are replaced continuously. A fixed
// live set of devices each has one series per metric, labelled with a
// device-unique id. Each round retires a share of the devices and births
// as many with full labels over /write (one request, about one in ten of
// all requests), then writes one sample per surviving device over
// /write_fast in gateway-sized requests. The total series count grows
// while the live set stays fixed. The memtable is large: with
// short-lived series, the number of fast-tier tables a device's lifetime
// overlaps after the drain depends on how many flushes and compactions ran
// (with ingest's 64 KiB memtable the read-back cost of one seed varied
// twofold between repetitions), and at 832 KiB every seed flushes twice
// before the drain, far from a flush-count boundary, so the tree the
// read-back sees has the same shape on every seed.
var churnDB = dbConfig{memTable: 832 << 10, l0Len: 30 * interval, l2Len: 120 * interval, cacheBytes: 256 << 10}

var deviceMetrics = []string{"temperature", "humidity", "battery", "rssi"}

const gateways = 9 // steady requests per round

type device struct {
	id    int
	ids   []uint64
	check bool      // read back after the drain
	got   []float64 // check devices: values sent, per round × metric
	born  int       // round of the first sample
}

func runChurn(b *bench) error {
	live := b.scaled(300, 20)
	rounds := b.scaled(150, 10)
	births := max(live/12, 1)
	total := live + rounds*births
	checkEvery := max(total/b.scaled(1000, 10), 1)
	rnd := rand.New(rand.NewSource(b.seed))
	w := b.newClient()
	defer w.close()

	var all []*device
	birth := func(n, round int, class string) ([]*device, error) {
		devs := make([]*device, n)
		req := remote.WriteRequest{Timeseries: make([]remote.WriteSeries, 0, n*len(deviceMetrics))}
		region := fmt.Sprintf("region-%d", rnd.Intn(6))
		for i := range devs {
			dv := &device{id: len(all), born: round}
			dv.check = dv.id%checkEvery == 0
			all = append(all, dv)
			devs[i] = dv
			model := fmt.Sprintf("model-%c", 'a'+rune(rnd.Intn(8)))
			for _, m := range deviceMetrics {
				v := sampleValue(rnd)
				if dv.check {
					dv.got = append(dv.got, v)
				}
				req.Timeseries = append(req.Timeseries, remote.WriteSeries{
					Labels: map[string]string{
						"fleet": fmt.Sprintf("fleet-%d", dv.id%16), "model": model, "region": region,
						"device_id": deviceName(dv.id), "metric": m,
					},
					Samples: []remote.Sample{{T: int64(round) * interval, V: v}},
				})
			}
		}
		body, _ := json.Marshal(req)
		resp := b.send(w, "/api/v1/write", body, class, int64(len(req.Timeseries)))
		if resp == nil {
			return nil, fmt.Errorf("churn: birth request failed")
		}
		var wr remote.WriteResponse
		if err := json.Unmarshal(resp, &wr); err != nil || len(wr.IDs) != len(req.Timeseries) {
			return nil, fmt.Errorf("churn: birth response: %d ids for %d series (%v)", len(wr.IDs), len(req.Timeseries), err)
		}
		for i, dv := range devs {
			dv.ids = wr.IDs[i*len(deviceMetrics) : (i+1)*len(deviceMetrics)]
		}
		return devs, nil
	}

	var fleet []*device
	for len(fleet) < live {
		devs, err := birth(min(births, live-len(fleet)), 0, "birth")
		if err != nil {
			return err
		}
		fleet = append(fleet, devs...)
	}
	b.setupDone()

	b.begin("write")
	var buf []byte
	var ids []uint64
	var vals []float64
	for r := 1; r <= rounds; r++ {
		for i := 0; i < births; i++ {
			j := rnd.Intn(len(fleet))
			fleet[j] = fleet[len(fleet)-1]
			fleet = fleet[:len(fleet)-1]
		}
		steady := len(fleet)
		devs, err := birth(births, r, "birth")
		if err != nil {
			return err
		}
		per := (steady + gateways - 1) / gateways
		t := int64(r) * interval
		for lo := 0; lo < steady; lo += per {
			ids, vals = ids[:0], vals[:0]
			for _, dv := range fleet[lo:min(lo+per, steady)] {
				for _, id := range dv.ids {
					v := sampleValue(rnd)
					if dv.check {
						dv.got = append(dv.got, v)
					}
					ids = append(ids, id)
					vals = append(vals, v)
				}
			}
			buf = appendFastWrite(buf[:0], ids, t, vals)
			b.send(w, "/api/v1/write_fast", buf, "append", int64(len(ids)))
		}
		fleet = append(fleet, devs...)
	}
	b.drain()
	b.end()

	if got, want := b.st.db.Stats().NumSeries, len(all)*len(deviceMetrics); got != want {
		b.problem("churn: %d series after the drain, %d births", got, want)
	}
	b.info["devices"] = float64(len(all))
	b.info["live_devices"] = float64(live)

	rd := b.newClient()
	defer rd.close()
	b.begin("read")
	for _, dv := range all {
		if !dv.check {
			continue
		}
		// The device's lifetime, as a dashboard of one device asks for it.
		last := dv.born + len(dv.got)/len(deviceMetrics) - 1
		body, _ := json.Marshal(remote.QueryRequest{MinT: int64(dv.born) * interval, MaxT: int64(last) * interval,
			Matchers: []remote.MatcherSpec{{Type: "=", Name: "device_id", Value: deviceName(dv.id)}}})
		resp := b.send(rd, "/api/v1/query", body, "device", 0)
		if resp != nil {
			b.checkDevice(resp, dv)
		}
	}
	b.end()
	return nil
}

func deviceName(id int) string { return fmt.Sprintf("dev-%07d", id) }

// sampleValue is a sensor reading with two decimals.
func sampleValue(rnd *rand.Rand) float64 { return float64(rnd.Intn(100_000)) / 100 }

// checkDevice compares a device read-back with every value sent.
func (b *bench) checkDevice(resp []byte, dv *device) {
	var qr remote.QueryResponse
	if err := json.Unmarshal(resp, &qr); err != nil {
		b.problem("device %d: %v", dv.id, err)
		return
	}
	nm := len(deviceMetrics)
	rounds := len(dv.got) / nm
	if len(qr.Series) != nm {
		b.problem("device %d: %d series, want %d", dv.id, len(qr.Series), nm)
		return
	}
	for _, s := range qr.Series {
		mi := slices.Index(deviceMetrics, s.Labels["metric"])
		if mi < 0 || s.Labels["device_id"] != deviceName(dv.id) || len(s.Samples) != rounds {
			b.problem("device %d: series %v has %d samples, want %d", dv.id, s.Labels, len(s.Samples), rounds)
			return
		}
		for k, p := range s.Samples {
			if p.T != int64(dv.born+k)*interval || p.V != dv.got[k*nm+mi] {
				b.problem("device %d %s: sample %d is (%d, %g), want (%d, %g)", dv.id, deviceMetrics[mi], k,
					p.T, p.V, int64(dv.born+k)*interval, dv.got[k*nm+mi])
				return
			}
		}
	}
}

// appendFastWrite encodes a /write_fast body with one sample per series.
func appendFastWrite(buf []byte, ids []uint64, t int64, vals []float64) []byte {
	buf = append(buf, `{"entries":[`...)
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendUint(buf, id, 10)
		buf = append(buf, `,"samples":[{"t":`...)
		buf = strconv.AppendInt(buf, t, 10)
		buf = append(buf, `,"v":`...)
		buf = strconv.AppendFloat(buf, vals[i], 'g', -1, 64)
		buf = append(buf, "}]}"...)
	}
	return append(buf, "]}"...)
}

func labelMap(ls labels.Labels) map[string]string {
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Name] = l.Value
	}
	return m
}

// registerHost births a host's series over the slow path with its first
// round and returns their ids.
func (b *bench) registerHost(c *client, h tsbs.Host, t int64, vals []float64) ([]uint64, error) {
	req := remote.WriteRequest{Timeseries: make([]remote.WriteSeries, tsbs.SeriesPerHost)}
	for si := range req.Timeseries {
		req.Timeseries[si] = remote.WriteSeries{Labels: labelMap(h.SeriesLabels(si)), Samples: []remote.Sample{{T: t, V: vals[si]}}}
	}
	body, _ := json.Marshal(req)
	resp := b.send(c, "/api/v1/write", body, "register", tsbs.SeriesPerHost)
	var wr remote.WriteResponse
	if resp == nil || json.Unmarshal(resp, &wr) != nil || len(wr.IDs) != tsbs.SeriesPerHost {
		return nil, fmt.Errorf("register %s: bad response", h.Hostname())
	}
	return wr.IDs, nil
}

// registerGroup births a host as one group (host tags shared, measurement
// and field unique) with its first round.
func (b *bench) registerGroup(c *client, h tsbs.Host, t int64, vals []float64) (remote.GroupWriteResponse, error) {
	req := remote.GroupWriteRequest{GroupTags: labelMap(h.Tags), Times: []int64{t}, Values: [][]float64{vals}}
	for si := 0; si < tsbs.SeriesPerHost; si++ {
		req.UniqueTags = append(req.UniqueTags, labelMap(tsbs.SeriesTags(si)))
	}
	body, _ := json.Marshal(req)
	resp := b.send(c, "/api/v1/write_group", body, "register", tsbs.SeriesPerHost)
	var gr remote.GroupWriteResponse
	if resp == nil || json.Unmarshal(resp, &gr) != nil || len(gr.Slots) != tsbs.SeriesPerHost {
		return gr, fmt.Errorf("register group %s: bad response", h.Hostname())
	}
	return gr, nil
}

// tsbsData keeps what the TSBS checks need: the values of the cpu
// measurement (the only one the query patterns read) of every host and
// round. Round r has timestamp r*interval.
type tsbsData struct {
	hosts  []tsbs.Host
	hourMs int64
	rounds int
	cpu    [][][]float64 // host, cpu field, round
}

var cpuFields = tsbs.Measurements[0].Fields

func newTSBSData(hosts []tsbs.Host, hourMs int64) *tsbsData {
	d := &tsbsData{hosts: hosts, hourMs: hourMs, cpu: make([][][]float64, len(hosts))}
	for h := range d.cpu {
		d.cpu[h] = make([][]float64, len(cpuFields))
	}
	return d
}

func (d *tsbsData) record(vals [][]float64) {
	for h := range d.hosts {
		for f := range cpuFields {
			d.cpu[h][f] = append(d.cpu[h][f], vals[h][f])
		}
	}
	d.rounds++
}

// tsbsQueries sends n queries cycling through the TSBS patterns, each
// checked sample by sample against the recorded cpu values.
func (b *bench) tsbsQueries(c *client, d *tsbsData, n int, rnd *rand.Rand) {
	env := tsbs.QueryEnv{Hosts: d.hosts, DataMin: 0, DataMax: int64(d.rounds-1) * interval, HourMs: d.hourMs}
	for i := 0; i < n; i++ {
		p := tsbs.Patterns[i%len(tsbs.Patterns)]
		q := tsbs.MakeQuery(p, env, rnd)
		req := remote.QueryRequest{MinT: q.MinT, MaxT: q.MaxT}
		for _, m := range q.Matchers {
			req.Matchers = append(req.Matchers, remote.MatcherSpec{Type: m.Type.String(), Name: m.Name, Value: m.Value})
		}
		body, _ := json.Marshal(req)
		if resp := b.send(c, "/api/v1/query", body, p.Name, 0); resp != nil {
			b.checkTSBS(resp, q, d)
		}
	}
}

func matcherValues(q tsbs.Query, name string) []string {
	for _, m := range q.Matchers {
		if m.Name == name {
			if m.Type == labels.MatchEqual {
				return []string{m.Value}
			}
			return strings.Split(m.Value, "|")
		}
	}
	return nil
}

// checkTSBS compares a result with the oracle: the selected hosts × cpu
// fields, each with every round in [MinT, MaxT] and the value sent.
func (b *bench) checkTSBS(resp []byte, q tsbs.Query, d *tsbsData) {
	var qr remote.QueryResponse
	if err := json.Unmarshal(resp, &qr); err != nil {
		b.problem("%s: %v", q.Pattern.Name, err)
		return
	}
	hostNames, fields := matcherValues(q, "hostname"), matcherValues(q, "field")
	if len(qr.Series) != len(hostNames)*len(fields) {
		b.problem("%s: %d series, want %d", q.Pattern.Name, len(qr.Series), len(hostNames)*len(fields))
		return
	}
	lo := max((q.MinT+interval-1)/interval, 0)
	hi := min(q.MaxT/interval, int64(d.rounds-1))
	seen := map[string]bool{}
	for _, s := range qr.Series {
		host, field := s.Labels["hostname"], s.Labels["field"]
		h, err := strconv.Atoi(strings.TrimPrefix(host, "host_"))
		f := slices.Index(cpuFields, field)
		key := host + "/" + field
		if err != nil || h < 0 || h >= len(d.hosts) || f < 0 || seen[key] || !slices.Contains(hostNames, host) || !slices.Contains(fields, field) {
			b.problem("%s: unexpected series %v", q.Pattern.Name, s.Labels)
			return
		}
		seen[key] = true
		if int64(len(s.Samples)) != hi-lo+1 {
			b.problem("%s: %s has %d samples, want %d", q.Pattern.Name, key, len(s.Samples), hi-lo+1)
			return
		}
		for k, p := range s.Samples {
			r := lo + int64(k)
			if p.T != r*interval || p.V != d.cpu[h][f][r] {
				b.problem("%s: %s sample %d is (%d, %g), want (%d, %g)", q.Pattern.Name, key, k, p.T, p.V, r*interval, d.cpu[h][f][r])
				return
			}
		}
	}
}
