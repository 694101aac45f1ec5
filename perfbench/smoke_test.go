package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"timeunion/internal/remote"
	"timeunion/internal/tsbs"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, with
// the correctness checks on, and checks that each reports every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"ingest", "query", "churn"} {
		for _, traced := range []bool{false, true} {
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var log bytes.Buffer
				res, err := run(wl, 7, 0.05, traced, dir, &log)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run not correct: %v\n%s", res.Problems, log.String())
				}
				for _, m := range spec.EndToEnd {
					if v, ok := res.Metrics[m.Name]; !ok || v <= 0 {
						t.Errorf("end-to-end metric %s = %v, %v", m.Name, v, ok)
					}
				}
				if !traced {
					return
				}
				for _, m := range spec.PerLayer {
					if strings.HasPrefix(m.Name, "trace.") {
						continue // computed by run.py from both kinds of run
					}
					if _, ok := res.Layers[m.Name]; !ok {
						t.Errorf("per-layer metric %s missing", m.Name)
					}
				}
				if !strings.Contains(log.String(), "ledger "+wl+"/write") {
					t.Errorf("no ledger printed:\n%s", log.String())
				}
				if st, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil || st.Size() == 0 {
					t.Errorf("span file: %v", err)
				}
			})
		}
	}
}

// TestCheckTSBSRejectsWrongAnswers feeds the TSBS oracle a correct result
// and then results with one wrong value, a missing sample and a missing
// series.
func TestCheckTSBSRejectsWrongAnswers(t *testing.T) {
	hosts := tsbs.Hosts(3, 1)
	gen := tsbs.NewGenerator(hosts, 0, interval, 2)
	d := newTSBSData(hosts, 4*interval)
	for r := 0; r < 6; r++ {
		_, vals := gen.Round()
		d.record(vals)
	}
	env := tsbs.QueryEnv{Hosts: hosts, DataMax: 5 * interval, HourMs: d.hourMs}
	q := tsbs.MakeQuery(tsbs.Patterns[5], env, rand.New(rand.NewSource(3))) // 5-8-1
	var good remote.QueryResponse
	for _, h := range matcherValues(q, "hostname") {
		hi := slices.IndexFunc(hosts, func(x tsbs.Host) bool { return x.Hostname() == h })
		for _, f := range matcherValues(q, "field") {
			fi := slices.Index(cpuFields, f)
			s := remote.QuerySeries{Labels: map[string]string{"hostname": h, "field": f, "measurement": "cpu"}}
			for r := q.MinT / interval; r <= q.MaxT/interval; r++ {
				s.Samples = append(s.Samples, remote.Sample{T: r * interval, V: d.cpu[hi][fi][r]})
			}
			good.Series = append(good.Series, s)
		}
	}
	check := func(resp remote.QueryResponse) []string {
		b := &bench{}
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		b.checkTSBS(raw, q, d)
		return b.problems
	}
	if p := check(good); len(p) != 0 {
		t.Fatalf("correct result rejected: %v", p)
	}
	clone := func() remote.QueryResponse {
		var c remote.QueryResponse
		raw, _ := json.Marshal(good)
		_ = json.Unmarshal(raw, &c)
		return c
	}
	wrongValue := clone()
	wrongValue.Series[1].Samples[2].V += 0.5
	shortSeries := clone()
	shortSeries.Series[0].Samples = shortSeries.Series[0].Samples[1:]
	missing := clone()
	missing.Series = missing.Series[1:]
	for name, resp := range map[string]remote.QueryResponse{"wrong value": wrongValue, "missing sample": shortSeries, "missing series": missing} {
		if p := check(resp); len(p) == 0 {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCheckSeriesRejectsWrongAnswers feeds the ingest read-back check a
// correct series and then a wrong value, a missing sample and a different
// series.
func TestCheckSeriesRejectsWrongAnswers(t *testing.T) {
	hosts := tsbs.Hosts(2, 1)
	want := replayRounds(hosts, 5, 2)
	ls := hosts[1].SeriesLabels(3)
	good := remote.QuerySeries{Labels: labelMap(ls)}
	for r, v := range want[1][3] {
		good.Samples = append(good.Samples, remote.Sample{T: int64(r) * interval, V: v})
	}
	check := func(s remote.QuerySeries) []string {
		raw, err := json.Marshal(remote.QueryResponse{Series: []remote.QuerySeries{s}})
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{}
		b.checkSeries(raw, ls, want[1][3])
		return b.problems
	}
	if p := check(good); len(p) != 0 {
		t.Fatalf("correct result rejected: %v", p)
	}
	wrongValue := good
	wrongValue.Samples = slices.Clone(good.Samples)
	wrongValue.Samples[2].V += 0.5
	short := good
	short.Samples = good.Samples[1:]
	other := good
	other.Labels = labelMap(hosts[0].SeriesLabels(3))
	for name, s := range map[string]remote.QuerySeries{"wrong value": wrongValue, "missing sample": short, "other series": other} {
		if p := check(s); len(p) == 0 {
			t.Errorf("%s accepted", name)
		}
	}
}
