package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the span that caused it (-1 for a
// root); spans of one request share Request — the serial (roa_change), the
// iteration (cold_sync, cache_refresh) or the batch (validate_churn).
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
}

// tracer keeps spans in a pre-allocated ring and writes them out when the
// run ends. A nil tracer, or one that is switched off, records nothing:
// untraced runs and the untraced reference stages of a traced run share the
// workload code and pay one nil/flag check per call site.
type tracer struct {
	mu   sync.Mutex
	on   bool
	t0   time.Time
	ring []span
	next int64 // id of the next span; slot = id % len(ring)
}

// epoch anchors every instant the harness stores as a number: nanoseconds
// since epoch keep the monotonic reading that a UnixNano round trip drops.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

func atNs(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }

func newTracer(capacity int) *tracer {
	return &tracer{t0: epoch, ring: make([]span, capacity)}
}

func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// add records a finished span and returns its id, or -1 when tracing is
// off. Once the ring wraps, the oldest spans are overwritten.
func (t *tracer) add(name string, start, end time.Time, parent, request int64) int64 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := t.next
	t.next++
	t.ring[id%int64(len(t.ring))] = span{
		ID: id, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Request: request,
	}
	return id
}

// reserve hands out an id for a root span whose end is not known yet, so
// children can name it; finish fills it in.
func (t *tracer) reserve() int64 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := t.next
	t.next++
	t.ring[id%int64(len(t.ring))] = span{ID: id, Parent: -1}
	return id
}

func (t *tracer) finish(id int64, name string, start, end time.Time, request int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := &t.ring[id%int64(len(t.ring))]
	if slot.ID != id {
		return // overwritten while open
	}
	*slot = span{
		ID: id, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Parent: -1, Request: request,
	}
}

// spans returns the retained spans in id order and how many were
// overwritten. Parents that were overwritten are reported as -1.
func (t *tracer) spans() (out []span, dropped int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(len(t.ring))
	first := int64(0)
	if t.next > n {
		first = t.next - n
	}
	out = make([]span, 0, t.next-first)
	for id := first; id < t.next; id++ {
		s := t.ring[id%n]
		if s.Name == "" {
			continue // reserved, never finished
		}
		if s.Parent >= 0 && s.Parent < first {
			s.Parent = -1
		}
		out = append(out, s)
	}
	return out, first
}

// durationsUs returns the durations, in µs, of the retained spans called
// name that started inside [from, to) ns since epoch; to ≤ 0 means no
// window.
func durationsUs(spans []span, name string, from, to int64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (to <= 0 || (s.StartNs >= from && s.StartNs < to)) {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int64][]iv)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if b > a {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, edge := int64(0), s.StartNs
		for _, k := range ivs {
			if k.b <= edge {
				continue
			}
			covered += k.b - max(k.a, edge)
			edge = k.b
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Dropped  int64            `json:"dropped"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
	TotalNs  map[string]int64 `json:"total_ns_by_name"`
	Count    map[string]int64 `json:"count_by_name"`
	Spans    []span           `json:"spans"`
}

// write stores the retained spans with per-name totals and self times.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	spans, dropped := t.spans()
	tf := traceFile{
		Workload: workload, Seed: seed, Dropped: dropped, Spans: spans,
		SelfNs: map[string]int64{}, TotalNs: map[string]int64{}, Count: map[string]int64{},
	}
	self := selfTimes(spans)
	for _, s := range spans {
		tf.SelfNs[s.Name] += self[s.ID]
		tf.TotalNs[s.Name] += s.EndNs - s.StartNs
		tf.Count[s.Name]++
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// finishTraced closes a traced workload run: the run's own failure share
// joins the per-layer metrics and the spans go to disk.
func finishTraced(cfg config, rep *report, tr *tracer) error {
	rep.layer("bench.fail_share", float64(rep.failed)/float64(max(1, rep.attempted)))
	path, err := tr.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	cfg.logf("trace written to %s", path)
	return nil
}
